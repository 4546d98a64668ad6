"""Accident and construction event generation.

Substitutes for the accident/construction logs in the Hyundai dataset.
Accidents arrive as a Poisson process over the corridor, hit a random
segment, and impose a severity multiplier for their duration followed by
a linear recovery ramp.  Construction events are rarer, longer, milder,
and scheduled overnight, mirroring real lane-closure practice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import SimulationConfig

__all__ = [
    "Incident",
    "sample_incidents",
    "incident_profile",
    "upstream_waves",
    "stamp_waves",
    "incident_masks",
]

_INCIDENT_REACH = 2  # hops an incident shockwave travels upstream


@dataclass(frozen=True)
class Incident:
    """A single capacity-reducing event on one segment.

    ``severity`` is the multiplicative speed factor while active (e.g.
    0.4 means speeds drop to 40 %); recovery ramps the factor linearly
    back to 1 over ``recovery_steps`` after the event clears.
    """

    segment: int
    start_step: int
    duration_steps: int
    recovery_steps: int
    severity: float
    kind: str  # "accident" | "construction"

    def __post_init__(self):
        if not 0.0 < self.severity <= 1.0:
            raise ValueError("severity must be in (0, 1]")
        if self.duration_steps <= 0:
            raise ValueError("duration must be positive")
        if self.kind not in ("accident", "construction"):
            raise ValueError(f"unknown incident kind {self.kind!r}")

    @property
    def end_step(self) -> int:
        """First step after the active phase."""
        return self.start_step + self.duration_steps


def sample_incidents(
    config: SimulationConfig,
    num_segments: int,
    rng: np.random.Generator,
    target_index: int | None = None,
) -> list[Incident]:
    """Draw all accidents and construction events for a simulation.

    A fraction ``accident_target_bias`` of accidents strike at or just
    downstream of the target segment, so its queue spillback reaches the
    studied road — the corridor is monitored precisely because it is the
    busy one.
    """
    incidents: list[Incident] = []
    steps_per_day = config.steps_per_day
    step_minutes = config.interval_minutes
    if target_index is None:
        target_index = num_segments // 2

    def accident_segment() -> int:
        if rng.random() < config.accident_target_bias:
            return int(min(target_index + rng.integers(0, 3), num_segments - 1))
        return int(rng.integers(0, num_segments))

    for day in range(config.num_days):
        day_start = day * steps_per_day

        # Accidents: Poisson count, uniform start time, biased toward peaks.
        for _ in range(rng.poisson(config.accident_rate_per_day)):
            # Accidents cluster in busy hours: mixture of uniform and peak.
            if rng.random() < 0.55:
                peak = rng.choice([config.morning_peak_hour, config.evening_peak_hour])
                hour = float(np.clip(rng.normal(peak, 1.2), 0.0, 23.9))
            else:
                hour = rng.uniform(0.0, 23.9)
            start = day_start + int(hour * 60 / step_minutes)
            duration_minutes = rng.integers(
                config.accident_duration_minutes_low,
                config.accident_duration_minutes_high + 1,
            )
            incidents.append(
                Incident(
                    segment=accident_segment(),
                    start_step=start,
                    duration_steps=max(1, int(duration_minutes // step_minutes)),
                    recovery_steps=max(1, config.accident_recovery_minutes // step_minutes),
                    severity=float(
                        rng.uniform(config.accident_severity_low, config.accident_severity_high)
                    ),
                    kind="accident",
                )
            )

        # Construction: overnight lane closures (22:00 - 05:00).
        for _ in range(rng.poisson(config.construction_rate_per_day)):
            hour = rng.uniform(22.0, 23.5)
            start = day_start + int(hour * 60 / step_minutes)
            duration_minutes = rng.integers(180, 420)
            incidents.append(
                Incident(
                    segment=int(rng.integers(0, num_segments)),
                    start_step=start,
                    duration_steps=int(duration_minutes // step_minutes),
                    recovery_steps=max(1, 20 // step_minutes),
                    severity=config.construction_speed_factor,
                    kind="construction",
                )
            )
    return incidents


def incident_profile(severity: float, duration_steps: int, recovery_steps: int) -> np.ndarray:
    """Severity for the active phase, then a linear recovery ramp to 1."""
    profile = np.ones(duration_steps + recovery_steps)
    profile[:duration_steps] = severity
    profile[duration_steps:] = np.linspace(severity, 1.0, recovery_steps + 1)[1:]
    return profile


def upstream_waves(roads, segment: int, depth: int, decay: float) -> list[dict[int, float]]:
    """Shockwave strength by hop upstream of ``segment``.

    ``waves[d]`` maps each segment ``d`` hops upstream to its damping.
    ``roads`` is anything answering ``upstream_of`` (a :class:`Corridor`
    or a road graph).  Each hop multiplies the damping by ``decay`` and
    divides it across the incoming branches (a merge splits the queue),
    so on a path hop ``d`` carries ``decay**d``.  A segment is reached
    once, at its nearest hop.
    """
    waves = [{segment: 1.0}]
    reached = {segment}
    for _ in range(depth):
        frontier: dict[int, float] = {}
        for seg, strength in sorted(waves[-1].items()):
            ups = roads.upstream_of(seg)
            for up in ups:
                if up not in reached:
                    frontier[up] = max(frontier.get(up, 0.0), strength * decay / len(ups))
        if not frontier:
            break
        reached |= set(frontier)
        waves.append(frontier)
    return waves


def stamp_waves(
    factor: np.ndarray,
    waves: list[dict[int, float]],
    profile: np.ndarray,
    start_step: int,
    delay_steps: int,
) -> None:
    """Lower ``factor`` (S, T) in place by a damped, hop-delayed ``profile``.

    Hop ``d`` starts ``d * delay_steps`` after ``start_step``; where
    waves overlap the slower factor wins.
    """
    total_steps = factor.shape[1]
    for depth, wave in enumerate(waves):
        start = start_step + depth * delay_steps
        if start >= total_steps:
            continue
        stop = min(start + len(profile), total_steps)
        window = profile[: stop - start]
        for segment, strength in wave.items():
            hit = 1.0 - strength * (1.0 - window)
            factor[segment, start:stop] = np.minimum(factor[segment, start:stop], hit)


def incident_masks(
    incidents: list[Incident],
    roads,
    total_steps: int,
    upstream_decay: float,
    delay_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand incidents into per-step arrays over ``roads``.

    Returns
    -------
    factor:
        (num_segments, T) multiplicative speed factor in (0, 1], combining
        the direct hit, the linear recovery ramp, and a damped, delayed
        shockwave ``_INCIDENT_REACH`` hops upstream (traffic queues grow
        backwards; see :func:`upstream_waves`).
    flags:
        (num_segments, T) 0/1 event indicator: 1 only on the directly hit
        segment during the active phase (what an ITS event log records).
    """
    factor = np.ones((len(roads), total_steps))
    flags = np.zeros((len(roads), total_steps))
    for incident in incidents:
        profile = incident_profile(
            incident.severity, incident.duration_steps, incident.recovery_steps
        )
        waves = upstream_waves(roads, incident.segment, _INCIDENT_REACH, upstream_decay)
        stamp_waves(factor, waves, profile, incident.start_step, delay_steps)
        flags[incident.segment, incident.start_step : min(incident.end_step, total_steps)] = 1.0
    return factor, flags
