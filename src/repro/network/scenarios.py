"""Declarative network scenarios compiled to per-tick modifier schedules.

A scenario is *data* — a named tuple of elements — and compilation turns
it into dense ``(segments, ticks)`` modifier arrays the wave engine
multiplies in.  Three element kinds cover the ISSUE's cases:

* :class:`IncidentCascade` — a seed incident whose shockwave triggers
  secondary incidents on upstream-adjacent segments at increasing
  delays, damped and split across incoming branches;
* :class:`EventPulse` — a stadium-style demand pulse at one zone, with
  a softer echo on the zone's 1-hop approach segments;
* :class:`WeatherFront` — a rain band sweeping the graph along a
  direction vector as a moving Gaussian mask.

Compilation is **purely deterministic** — no rng anywhere — which is
the property the baseline-vs-scenario comparison rests on: the engine
draws the *same* random demand noise, incidents and measurement noise
for both runs at the same seed, so every difference in the output is
attributable to the scenario schedule alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..traffic.incidents import incident_profile, stamp_waves, upstream_waves
from .graph import RoadGraph

__all__ = [
    "IncidentCascade",
    "EventPulse",
    "WeatherFront",
    "Scenario",
    "ModifierSchedule",
    "compile_scenario",
]


@dataclass(frozen=True)
class IncidentCascade:
    """A seed incident plus delayed secondary incidents spreading upstream.

    Wave 0 hits ``segment`` at ``start_step`` with multiplicative
    ``severity``; wave ``d`` (1..``cascade_depth``) hits the upstream
    segments ``d`` hops away at ``start_step + d * cascade_delay_steps``
    with the severity damped by ``cascade_decay**d`` and split evenly
    across incoming branches — the graph generalisation of the
    corridor's linear shockwave.
    """

    segment: int
    start_step: int
    severity: float = 0.45
    duration_steps: int = 12
    recovery_steps: int = 9
    cascade_depth: int = 2
    cascade_delay_steps: int = 3
    cascade_decay: float = 0.6

    def __post_init__(self):
        if not 0.0 < self.severity < 1.0:
            raise ValueError("severity must be in (0, 1)")
        if self.duration_steps < 1 or self.recovery_steps < 1:
            raise ValueError("duration and recovery must be positive")
        if self.cascade_depth < 0 or self.cascade_delay_steps < 0:
            raise ValueError("cascade depth/delay must be non-negative")
        if not 0.0 < self.cascade_decay <= 1.0:
            raise ValueError("cascade_decay must be in (0, 1]")


@dataclass(frozen=True)
class EventPulse:
    """A stadium-event demand pulse at one zone.

    Adds ``demand_boost`` (a capacity fraction, like the corridor's rain
    boost) to every segment of ``zone`` over the pulse window, ramping
    in and out over a quarter of the duration; 1-hop approach segments
    outside the zone get half the boost (arrivals queue on the way in).
    """

    zone: int
    start_step: int
    duration_steps: int
    demand_boost: float = 0.35

    def __post_init__(self):
        if self.duration_steps < 1:
            raise ValueError("duration must be positive")
        if not 0.0 < self.demand_boost <= 1.0:
            raise ValueError("demand_boost must be in (0, 1]")


@dataclass(frozen=True)
class WeatherFront:
    """A rain band sweeping across the graph along ``direction``.

    The band is a Gaussian of spatial scale ``width_km`` around a moving
    front line; it enters from one side at ``start_step`` and exits the
    other side ``duration_steps`` later.  Speeds drop by up to
    ``speed_drop`` (relative) under the core, and the swept intensity
    feeds the series' global precipitation channel weighted by network
    coverage.
    """

    start_step: int
    duration_steps: int
    direction: tuple[float, float] = (1.0, 0.0)
    width_km: float = 3.0
    intensity_mm: float = 0.8
    speed_drop: float = 0.22

    def __post_init__(self):
        if self.duration_steps < 2:
            raise ValueError("a front needs at least 2 steps to sweep")
        if abs(self.direction[0]) + abs(self.direction[1]) <= 0:
            raise ValueError("direction must be a non-zero vector")
        if self.width_km <= 0:
            raise ValueError("width_km must be positive")
        if not 0.0 <= self.speed_drop < 1.0:
            raise ValueError("speed_drop must be in [0, 1)")


@dataclass(frozen=True)
class Scenario:
    """A named bundle of scenario elements."""

    name: str
    elements: tuple[IncidentCascade | EventPulse | WeatherFront, ...]

    def __post_init__(self):
        if not self.name:
            raise ValueError("scenario needs a name")


@dataclass
class ModifierSchedule:
    """Dense per-tick modifiers a compiled scenario applies to the engine.

    ``speed_factor`` multiplies speeds (≤ 1), ``demand_boost`` adds
    capacity fractions to demand, ``event_flags`` marks directly hit
    segments (what an ITS event log would record), and
    ``precipitation_extra`` adds to the global precipitation channel.
    """

    speed_factor: np.ndarray  # (S, T), multiplicative, in (0, 1]
    demand_boost: np.ndarray  # (S, T), additive capacity fraction
    event_flags: np.ndarray  # (S, T), 0/1
    precipitation_extra: np.ndarray = field(default_factory=lambda: np.zeros(0))  # (T,)

    @staticmethod
    def identity(num_segments: int, total_steps: int) -> "ModifierSchedule":
        return ModifierSchedule(
            speed_factor=np.ones((num_segments, total_steps)),
            demand_boost=np.zeros((num_segments, total_steps)),
            event_flags=np.zeros((num_segments, total_steps)),
            precipitation_extra=np.zeros(total_steps),
        )


def _apply_cascade(
    schedule: ModifierSchedule, graph: RoadGraph, cascade: IncidentCascade, total_steps: int
) -> None:
    if not 0 <= cascade.segment < len(graph):
        raise ValueError(f"cascade segment {cascade.segment} outside graph")
    waves = upstream_waves(graph, cascade.segment, cascade.cascade_depth, cascade.cascade_decay)
    profile = incident_profile(cascade.severity, cascade.duration_steps, cascade.recovery_steps)
    stamp_waves(
        schedule.speed_factor, waves, profile, cascade.start_step, cascade.cascade_delay_steps
    )
    for depth, wave in enumerate(waves):
        start = cascade.start_step + depth * cascade.cascade_delay_steps
        active_stop = min(start + cascade.duration_steps, total_steps)
        for segment in wave:
            schedule.event_flags[segment, start:active_stop] = 1.0


def _apply_pulse(
    schedule: ModifierSchedule, graph: RoadGraph, pulse: EventPulse, total_steps: int
) -> None:
    if not 0 <= pulse.zone < graph.num_zones:
        raise ValueError(f"pulse zone {pulse.zone} outside graph zones")
    start = pulse.start_step
    stop = min(start + pulse.duration_steps, total_steps)
    if start >= total_steps or stop <= start:
        return
    ramp = max(1, pulse.duration_steps // 4)
    envelope = np.ones(pulse.duration_steps)
    envelope[:ramp] = np.linspace(0.0, 1.0, ramp + 1)[1:]
    envelope[pulse.duration_steps - ramp :] = np.linspace(1.0, 0.0, ramp + 1)[:-1]
    envelope = envelope[: stop - start]

    members = [s for s in range(len(graph)) if graph.zone_of[s] == pulse.zone]
    approach: set[int] = set()
    for segment in members:
        approach.update(graph.neighbours(segment))
    approach -= set(members)
    for segment in members:
        schedule.demand_boost[segment, start:stop] += pulse.demand_boost * envelope
    for segment in sorted(approach):
        schedule.demand_boost[segment, start:stop] += 0.5 * pulse.demand_boost * envelope


def _apply_front(
    schedule: ModifierSchedule, graph: RoadGraph, front: WeatherFront, total_steps: int
) -> None:
    start = front.start_step
    stop = min(start + front.duration_steps, total_steps)
    if start >= total_steps or stop <= start:
        return
    direction = np.asarray(front.direction, dtype=np.float64)
    direction = direction / np.linalg.norm(direction)
    projection = graph.segment_positions() @ direction  # (S,)
    lo = projection.min() - 2.0 * front.width_km
    hi = projection.max() + 2.0 * front.width_km
    ticks = np.arange(start, stop)
    progress = (ticks - start) / (front.duration_steps - 1)
    centre = lo + (hi - lo) * progress  # (W,)
    local = np.exp(-0.5 * ((projection[:, None] - centre[None, :]) / front.width_km) ** 2)
    schedule.speed_factor[:, start:stop] = np.minimum(
        schedule.speed_factor[:, start:stop], 1.0 - front.speed_drop * local
    )
    schedule.precipitation_extra[start:stop] += front.intensity_mm * local.mean(axis=0)


def compile_scenario(
    scenario: Scenario, graph: RoadGraph, total_steps: int
) -> ModifierSchedule:
    """Compile a scenario into its dense per-tick modifier schedule."""
    if total_steps < 1:
        raise ValueError("total_steps must be positive")
    schedule = ModifierSchedule.identity(len(graph), total_steps)
    for element in scenario.elements:
        if isinstance(element, IncidentCascade):
            _apply_cascade(schedule, graph, element, total_steps)
        elif isinstance(element, EventPulse):
            _apply_pulse(schedule, graph, element, total_steps)
        elif isinstance(element, WeatherFront):
            _apply_front(schedule, graph, element, total_steps)
        else:
            raise TypeError(f"unknown scenario element {type(element).__name__}")
    return schedule
