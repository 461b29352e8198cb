"""Piecewise-constant time-varying workload schedules.

The paper's CTMC is solved in steady state, which answers "how does the cell
behave under a fixed load".  Operators ask non-stationary questions: what
happens to blocking and throughput *during* the morning busy-hour ramp, a
flash crowd, or a partial-capacity outage.  A :class:`RateSchedule` describes
such a workload as an ordered sequence of :class:`ScheduleSegment` entries,
each holding the configuration constant for a duration:

* ``arrival_rate_multiplier`` scales the base call arrival rate (so a
  schedule composes with arrival-rate sweeps exactly like a hotspot cell's
  multiplier does in :mod:`repro.network.topology`);
* ``overrides`` may replace any cell-local parameter field -- an outage
  segment drops ``number_of_channels``, a policy change flips
  ``reserved_pdch`` or ``tcp_threshold``.

Within a segment the chain is time-homogeneous, so the transient solver
(:mod:`repro.transient.model`) builds one generator per segment and carries
the state distribution across the breakpoints.

A :class:`WorkloadProfile` pairs a schedule with *how to observe it*: the
sampling grid of the QoS trajectory and the initial condition (``"stationary"``
starts in the steady state of the first segment -- the natural choice for a
ramp out of a settled morning load -- while ``"empty"`` starts from an idle
cell).  Profiles are frozen, dict round-trippable and content-digestable like
:class:`~repro.network.topology.CellTopology`, so they can live inside
scenario specs and content-addressed cache keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.core.parameters import GprsModelParameters
from repro.store.content import content_key

__all__ = [
    "SEGMENT_OVERRIDE_FIELDS",
    "RateSchedule",
    "ScheduleSegment",
    "WorkloadProfile",
    "busy_hour_ramp",
    "constant_workload",
    "diurnal_cycle",
    "flash_crowd",
    "outage_recovery",
]

#: Parameter fields a segment may override: every cell-local field of
#: :class:`~repro.core.parameters.GprsModelParameters` except the swept
#: arrival rate (scaled via ``arrival_rate_multiplier`` instead) and the
#: shared traffic model.  The same set a network topology may override per
#: cell, for the same reason: both describe deviations from one base cell.
SEGMENT_OVERRIDE_FIELDS = frozenset(
    {
        "gprs_fraction",
        "number_of_channels",
        "reserved_pdch",
        "buffer_size",
        "max_gprs_sessions",
        "coding_scheme",
        "mean_gsm_call_duration_s",
        "mean_gsm_dwell_time_s",
        "mean_gprs_dwell_time_s",
        "tcp_threshold",
        "block_error_rate",
    }
)


@dataclass(frozen=True)
class ScheduleSegment:
    """One piecewise-constant piece of a workload schedule.

    Parameters
    ----------
    duration_s:
        How long the configuration holds, in seconds (strictly positive).
    arrival_rate_multiplier:
        Factor applied to the base call arrival rate during this segment
        (composes with arrival-rate sweeps; 1.0 = the base load).
    overrides:
        Parameter fields replaced during this segment, keys from
        :data:`SEGMENT_OVERRIDE_FIELDS`.  Stored as a read-only mapping after
        validation (segments are shared through frozen profiles and hashed
        into cache keys).
    """

    duration_s: float
    arrival_rate_multiplier: float = 1.0
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.duration_s > 0:
            raise ValueError("segment duration must be strictly positive")
        if self.arrival_rate_multiplier < 0:
            raise ValueError("arrival_rate_multiplier must be non-negative")
        values = dict(self.overrides)
        unknown = set(values) - SEGMENT_OVERRIDE_FIELDS
        if unknown:
            raise ValueError(
                f"unknown segment override(s) {sorted(unknown)}; allowed: "
                f"{sorted(SEGMENT_OVERRIDE_FIELDS)}"
            )
        object.__setattr__(self, "duration_s", float(self.duration_s))
        object.__setattr__(
            self, "arrival_rate_multiplier", float(self.arrival_rate_multiplier)
        )
        object.__setattr__(self, "overrides", MappingProxyType(values))

    def __reduce__(self):
        # MappingProxyType is not picklable; round-trip through the dict form.
        return (ScheduleSegment.from_dict, (self.to_dict(),))

    def parameters(self, base: GprsModelParameters) -> GprsModelParameters:
        """Materialise this segment's effective parameters over ``base``."""
        params = base.replace(**dict(self.overrides)) if self.overrides else base
        if self.arrival_rate_multiplier != 1.0:
            params = params.with_arrival_rate(
                base.total_call_arrival_rate * self.arrival_rate_multiplier
            )
        return params

    def to_dict(self) -> dict:
        return {
            "duration_s": self.duration_s,
            "arrival_rate_multiplier": self.arrival_rate_multiplier,
            "overrides": dict(self.overrides),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleSegment":
        known = {"duration_s", "arrival_rate_multiplier", "overrides"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown segment field(s) {sorted(unknown)}")
        return cls(
            duration_s=data["duration_s"],
            arrival_rate_multiplier=data.get("arrival_rate_multiplier", 1.0),
            overrides=dict(data.get("overrides", {})),
        )


@dataclass(frozen=True)
class RateSchedule:
    """An ordered sequence of piecewise-constant workload segments."""

    name: str
    segments: tuple[ScheduleSegment, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a schedule needs a non-empty name")
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("a schedule needs at least one segment")
        if not all(isinstance(segment, ScheduleSegment) for segment in segments):
            raise ValueError("segments must be ScheduleSegment instances")
        object.__setattr__(self, "segments", segments)

    @property
    def number_of_segments(self) -> int:
        return len(self.segments)

    @property
    def total_duration_s(self) -> float:
        return float(sum(segment.duration_s for segment in self.segments))

    def breakpoints(self) -> tuple[float, ...]:
        """Segment start times, ``(0.0, d_0, d_0 + d_1, ...)`` (no end time)."""
        starts = [0.0]
        for segment in self.segments[:-1]:
            starts.append(starts[-1] + segment.duration_s)
        return tuple(starts)

    def segment_at(self, time_s: float) -> int:
        """Index of the segment active at ``time_s`` (left-closed intervals).

        A breakpoint belongs to the segment *starting* there; the total
        duration maps to the last segment so trajectories can sample their
        final instant.
        """
        if time_s < 0 or time_s > self.total_duration_s:
            raise ValueError(
                f"time {time_s} outside the schedule [0, {self.total_duration_s}]"
            )
        elapsed = 0.0
        for index, segment in enumerate(self.segments):
            elapsed += segment.duration_s
            if time_s < elapsed:
                return index
        return len(self.segments) - 1

    def is_constant(self) -> bool:
        """Whether every segment describes the same configuration."""
        first = self.segments[0]
        return all(
            segment.arrival_rate_multiplier == first.arrival_rate_multiplier
            and dict(segment.overrides) == dict(first.overrides)
            for segment in self.segments[1:]
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "segments": [segment.to_dict() for segment in self.segments],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RateSchedule":
        known = {"name", "segments"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown schedule field(s) {sorted(unknown)}")
        return cls(
            name=data["name"],
            segments=tuple(
                ScheduleSegment.from_dict(segment) for segment in data["segments"]
            ),
        )

    def digest(self) -> str:
        """Stable content hash of the schedule (for cache keys and reports).

        Computed once and cached on the instance: the dataclass is frozen
        (every mutation path returns a new object), so the rendered content
        can never change under a live digest.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = content_key(self.to_dict())[:16]
            object.__setattr__(self, "_digest", cached)
        return cached


@dataclass(frozen=True)
class WorkloadProfile:
    """A schedule plus how to observe it: sampling grid and initial condition.

    Parameters
    ----------
    schedule:
        The piecewise-constant workload.
    samples:
        Number of *intervals* of the uniform sampling grid; the trajectory is
        evaluated at ``samples + 1`` evenly spaced times covering
        ``[0, total_duration]``.  Unused when ``times`` is given, and then
        normalised to the default so two profiles with the same explicit
        times can never differ in equality, serialisation or content digest
        through a dead field.
    times:
        Explicit sample times (strictly increasing, within the schedule);
        overrides the uniform grid.
    initial:
        ``"stationary"`` starts the trajectory in the steady state of the
        first segment's configuration (a settled system hit by the schedule);
        ``"empty"`` starts from the empty cell.
    """

    schedule: RateSchedule
    samples: int = 24
    times: tuple[float, ...] | None = None
    initial: str = "stationary"

    def __post_init__(self) -> None:
        if not isinstance(self.schedule, RateSchedule):
            raise ValueError("schedule must be a RateSchedule")
        if self.initial not in ("stationary", "empty"):
            raise ValueError('initial must be "stationary" or "empty"')
        if self.times is not None:
            times = tuple(float(t) for t in self.times)
            if not times:
                raise ValueError("times must be None or non-empty")
            total = self.schedule.total_duration_s
            if any(t < 0 or t > total for t in times):
                raise ValueError(f"sample times must lie within [0, {total}]")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("sample times must be strictly increasing")
            object.__setattr__(self, "times", times)
            object.__setattr__(self, "samples", 24)
        elif self.samples < 1:
            raise ValueError("samples must be at least 1")

    @property
    def name(self) -> str:
        return self.schedule.name

    @property
    def total_duration_s(self) -> float:
        return self.schedule.total_duration_s

    def sample_times(self) -> tuple[float, ...]:
        """The trajectory's sample times (explicit, or the uniform grid)."""
        if self.times is not None:
            return self.times
        total = self.schedule.total_duration_s
        # min() guards the last grid points against rounding one ULP past the
        # schedule end when the summed segment durations are not exactly
        # representable (total * samples / samples can round upward).
        return tuple(
            min(total, total * index / self.samples)
            for index in range(self.samples + 1)
        )

    def to_dict(self) -> dict:
        return {
            "schedule": self.schedule.to_dict(),
            "samples": self.samples,
            "times": None if self.times is None else list(self.times),
            "initial": self.initial,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadProfile":
        known = {"schedule", "samples", "times", "initial"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown profile field(s) {sorted(unknown)}")
        times = data.get("times")
        return cls(
            schedule=RateSchedule.from_dict(data["schedule"]),
            samples=data.get("samples", 24),
            times=None if times is None else tuple(times),
            initial=data.get("initial", "stationary"),
        )

    def digest(self) -> str:
        """Stable content hash of the profile (for cache keys and reports).

        Computed once and cached on the (frozen) instance, so sweep-point
        cache keys that hash per point never re-render the full profile.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = content_key(self.to_dict())[:16]
            object.__setattr__(self, "_digest", cached)
        return cached


# ---------------------------------------------------------------------- #
# Profile constructors
# ---------------------------------------------------------------------- #
def constant_workload(
    duration_s: float,
    *,
    multiplier: float = 1.0,
    samples: int = 8,
    initial: str = "stationary",
    name: str = "constant",
) -> WorkloadProfile:
    """A single constant segment -- the validation anchor's schedule."""
    return WorkloadProfile(
        schedule=RateSchedule(
            name=name,
            segments=(
                ScheduleSegment(
                    duration_s=duration_s, arrival_rate_multiplier=multiplier
                ),
            ),
        ),
        samples=samples,
        initial=initial,
    )


def busy_hour_ramp(
    *,
    peak_multiplier: float = 2.0,
    ramp_steps: int = 3,
    step_duration_s: float = 120.0,
    hold_duration_s: float = 240.0,
    samples: int = 24,
) -> WorkloadProfile:
    """The morning busy hour: staircase up to the peak, hold, staircase down.

    The ramp is a piecewise-constant staircase of ``ramp_steps`` equal
    multiplier increments from the base load (1.0) to ``peak_multiplier`` and
    back, each step held for ``step_duration_s``.
    """
    if peak_multiplier <= 1.0:
        raise ValueError("peak_multiplier must exceed 1.0 (the base load)")
    if ramp_steps < 1:
        raise ValueError("ramp_steps must be at least 1")
    up = [
        ScheduleSegment(
            duration_s=step_duration_s,
            arrival_rate_multiplier=1.0 + (peak_multiplier - 1.0) * step / ramp_steps,
        )
        for step in range(1, ramp_steps)
    ]
    segments = (
        [ScheduleSegment(duration_s=step_duration_s)]
        + up
        + [
            ScheduleSegment(
                duration_s=hold_duration_s, arrival_rate_multiplier=peak_multiplier
            )
        ]
        + list(reversed(up))
        + [ScheduleSegment(duration_s=step_duration_s)]
    )
    return WorkloadProfile(
        schedule=RateSchedule(name="busy-hour-ramp", segments=tuple(segments)),
        samples=samples,
        initial="stationary",
    )


def flash_crowd(
    *,
    spike_multiplier: float = 3.0,
    spike_duration_s: float = 90.0,
    lead_duration_s: float = 60.0,
    recovery_duration_s: float = 240.0,
    samples: int = 20,
) -> WorkloadProfile:
    """A sudden load spike: base load, an abrupt spike, then recovery."""
    if spike_multiplier <= 1.0:
        raise ValueError("spike_multiplier must exceed 1.0 (the base load)")
    return WorkloadProfile(
        schedule=RateSchedule(
            name="flash-crowd",
            segments=(
                ScheduleSegment(duration_s=lead_duration_s),
                ScheduleSegment(
                    duration_s=spike_duration_s,
                    arrival_rate_multiplier=spike_multiplier,
                ),
                ScheduleSegment(duration_s=recovery_duration_s),
            ),
        ),
        samples=samples,
        initial="stationary",
    )


def outage_recovery(
    *,
    outage_channels: int,
    outage_duration_s: float = 120.0,
    lead_duration_s: float = 60.0,
    recovery_duration_s: float = 240.0,
    samples: int = 20,
) -> WorkloadProfile:
    """A partial-capacity outage: the cell loses physical channels, then recovers.

    During the outage segment the cell runs on ``outage_channels`` total
    channels (an absolute count, e.g. 12 of the nominal 20).  The state-space
    shape changes at both breakpoints; the transient solver remaps the
    distribution by truncating the coordinates that no longer fit (calls and
    packets dropped at the instant of the outage).
    """
    if outage_channels < 2:
        raise ValueError("the outage must leave at least 2 channels")
    return WorkloadProfile(
        schedule=RateSchedule(
            name="outage-recovery",
            segments=(
                ScheduleSegment(duration_s=lead_duration_s),
                ScheduleSegment(
                    duration_s=outage_duration_s,
                    overrides={"number_of_channels": int(outage_channels)},
                ),
                ScheduleSegment(duration_s=recovery_duration_s),
            ),
        ),
        samples=samples,
        initial="stationary",
    )


def diurnal_cycle(
    *,
    hours: int = 24,
    hour_duration_s: float = 60.0,
    amplitude: float = 0.6,
    peak_hour: float = 18.0,
    samples: int = 48,
) -> WorkloadProfile:
    """A sinusoidal day discretised into one constant segment per hour.

    The multiplier of hour ``h`` is ``1 + amplitude * sin(...)`` evaluated at
    the hour's midpoint, peaking at ``peak_hour``; ``hour_duration_s``
    compresses the day so scaled presets stay tractable (the default maps one
    hour of the cycle to one minute of model time).
    """
    if hours < 2:
        raise ValueError("a diurnal cycle needs at least 2 hours")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    segments = []
    for hour in range(hours):
        phase = 2.0 * math.pi * ((hour + 0.5) - peak_hour) / hours
        multiplier = 1.0 + amplitude * math.cos(phase)
        segments.append(
            ScheduleSegment(
                duration_s=hour_duration_s, arrival_rate_multiplier=multiplier
            )
        )
    return WorkloadProfile(
        schedule=RateSchedule(name=f"diurnal-{hours}h", segments=tuple(segments)),
        samples=samples,
        initial="stationary",
    )
