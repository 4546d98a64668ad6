"""The speed-field engine: one ``run()`` for corridors and road networks.

Produces the synthetic stand-in for the Hyundai Motor Company dataset:
five-minute speeds on a linear expressway corridor, together with the
weather, event and calendar channels APOTS consumes.  The engine reads
its road layout only through adjacency — ``upstream_of`` for incident
shockwaves and flash spill, ``neighbours`` for spatial smoothing — so
a :class:`~repro.traffic.types.Corridor` (a path) and a
:class:`repro.network.graph.RoadGraph` (a junction graph) draw their
fields through the same body.  :class:`repro.network.waves.NetworkSimulator`
subclasses it and adds only what a graph brings: demand weights, a
compiled scenario schedule, and queue spillback at bottleneck junctions.

The generative story, per timestep and segment:

1. **Demand** follows a double-peaked daily profile (morning/evening rush
   on weekdays, flatter and lighter on weekends/holidays) with slowly
   varying AR(1) noise.  Rain adds a little demand (slower, denser flow).
2. **Congestion law** maps demand to speed through a smooth
   fundamental-diagram-like curve: near free flow below the knee, rapidly
   collapsing above it.  This produces the sudden rush-hour drops of
   Fig 1a.
3. **Weather** multiplies speed down with rain intensity (Fig 1b).
4. **Incidents** impose severity factors with recovery ramps and a
   damped, delayed upstream shockwave (Fig 1c).
5. **Spatial coupling** smooths each segment toward its neighbours, and
   AR(1) measurement noise is added before clipping to physical limits.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter
from scipy.sparse import csr_matrix

from .calendar import day_type_flags, is_weekend, timeline
from .incidents import incident_masks, sample_incidents
from .types import Corridor, SimulationConfig, TrafficSeries
from .weather import WeatherModel

__all__ = ["TrafficSimulator", "simulate", "demand_profile", "congestion_speed_factor"]


def demand_profile(
    cfg: SimulationConfig, hour_fraction: np.ndarray, weekday: bool, holiday: bool
) -> np.ndarray:
    """Deterministic demand fraction of capacity for given clock times.

    Weekdays show two sharp rush-hour peaks; weekends and holidays a
    single broad midday bulge at lower level.
    """
    base = np.full_like(hour_fraction, cfg.base_demand)
    # Overnight lull.
    night = np.exp(-0.5 * ((hour_fraction - 3.5) / 2.0) ** 2)
    base = base * (1.0 - 0.55 * night)
    if weekday and not holiday:
        for peak_hour in (cfg.morning_peak_hour, cfg.evening_peak_hour):
            bump = np.exp(-0.5 * ((hour_fraction - peak_hour) / cfg.peak_width_hours) ** 2)
            base = base + (cfg.peak_demand - cfg.base_demand) * bump
    else:
        scale = cfg.holiday_demand_scale if holiday else cfg.weekend_demand_scale
        midday = np.exp(-0.5 * ((hour_fraction - 13.0) / 3.5) ** 2)
        base = scale * (base + 0.42 * midday)
    return np.clip(base, 0.02, 1.15)


def congestion_speed_factor(cfg: SimulationConfig, demand: np.ndarray) -> np.ndarray:
    """Map demand fraction to a multiplicative speed factor in (0, 1].

    Below the knee traffic flows near free speed; above it the factor
    collapses steeply (the source of abrupt rush-hour decelerations).
    """
    ratio = np.maximum(demand, 0.0) / cfg.congestion_knee
    return 1.0 / (1.0 + ratio**cfg.congestion_gamma * 0.9)


def _ar1(innovations: np.ndarray, rho: float) -> np.ndarray:
    """``level = rho * level + innovation`` along the last axis, from zero."""
    return lfilter([1.0], [1.0, -rho], innovations, axis=-1)


class TrafficSimulator:
    """Draws a :class:`TrafficSeries` over a road layout.

    ``corridor`` (kept as :attr:`roads`) is the layout: anything with
    ``segments``, ``target_index``, ``upstream_of``, ``neighbours`` and
    ``as_corridor``.  A :class:`Corridor` answers as a path; a
    :class:`repro.network.graph.RoadGraph` answers through its
    junctions.  Subclasses reshape the field through two hooks,
    :meth:`_segment_demand` and :meth:`_shape_speeds`; the corridor
    leaves both as they are.
    """

    def __init__(self, config: SimulationConfig | None = None, corridor: Corridor | None = None):
        self.config = config if config is not None else SimulationConfig()
        rng = np.random.default_rng(self.config.seed)
        self.roads = corridor if corridor is not None else Corridor.gyeongbu(rng=rng)

    def _segment_demand(self, demand: np.ndarray, segment_bias: np.ndarray) -> np.ndarray:
        """(S, T) demand before the physical clip: shared demand plus a per-segment bias."""
        return demand + segment_bias[:, None]

    def _shape_speeds(self, speeds: np.ndarray, free_flow: np.ndarray) -> np.ndarray:
        """Reshape the assembled (S, T) field before smoothing; a no-op here."""
        return speeds

    def _flash_congestion(self, demand: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sudden short slowdowns with instant onset and release.

        Strikes only while demand is above ``flash_demand_threshold``
        (dense traffic is where stop-and-go waves form).  The sharp edges
        of these episodes are the dominant source of the abrupt
        acceleration/deceleration samples the paper evaluates on.  Each
        flash spills mildly onto every upstream branch, split across
        the branches.
        """
        cfg = self.config
        total = len(demand)
        factor = np.ones((len(self.roads), total))
        count = rng.poisson(cfg.flash_rate_per_day * cfg.num_days)
        dense_steps = np.flatnonzero(demand >= cfg.flash_demand_threshold)
        if dense_steps.size == 0 or count == 0:
            return factor
        for start in rng.choice(dense_steps, size=count):
            if rng.random() < cfg.flash_target_bias:
                seg = self.roads.target_index
            else:
                seg = int(rng.integers(0, len(self.roads)))
            duration = int(
                rng.integers(cfg.flash_duration_steps_low, cfg.flash_duration_steps_high + 1)
            )
            severity = float(rng.uniform(cfg.flash_severity_low, cfg.flash_severity_high))
            stop = min(start + duration, total)
            factor[seg, start:stop] = np.minimum(factor[seg, start:stop], severity)
            ups = self.roads.upstream_of(seg)
            for up in ups:
                damped = 1.0 - 0.45 * (1.0 - severity) / len(ups)
                factor[up, start + 1 : stop + 1] = np.minimum(
                    factor[up, start + 1 : stop + 1], damped
                )
        return factor

    def _spatial_smoothing(self, speeds: np.ndarray) -> np.ndarray:
        """Pull each segment 18 % toward its neighbours' mean (queues leak).

        A segment without neighbours pulls toward itself.
        """
        neighbours = [self.roads.neighbours(seg) or (seg,) for seg in range(len(self.roads))]
        counts = np.array([len(n) for n in neighbours])
        adjacency = csr_matrix(
            (np.ones(counts.sum()), np.concatenate(neighbours), np.r_[0, np.cumsum(counts)]),
            shape=(len(self.roads), len(self.roads)),
        )
        # Row sums accumulate in neighbour order, one ``+=`` per neighbour.
        pull = adjacency @ speeds
        pull /= counts[:, None]
        pull *= 0.18
        return 0.82 * speeds + pull

    def run(self) -> TrafficSeries:
        """Generate the full speed field and auxiliary channels."""
        cfg = self.config
        roads = self.roads
        rng = np.random.default_rng(cfg.seed + 1)
        stamps = timeline(cfg.start_date, cfg.num_days, cfg.interval_minutes)
        total = len(stamps)
        num_segments = len(roads)

        # Calendar channels and the day-type demand profile.
        hours = np.array([s.hour for s in stamps], dtype=np.float64)
        hour_fraction = np.array([s.hour + s.minute / 60.0 for s in stamps])
        day_types = np.empty((total, 4))
        demand = np.empty(total)
        steps_per_day = cfg.steps_per_day
        for day_index in range(cfg.num_days):
            date = stamps[day_index * steps_per_day].date()
            flags = day_type_flags(date, cfg.holidays)
            sl = slice(day_index * steps_per_day, (day_index + 1) * steps_per_day)
            day_types[sl] = flags.as_array()
            demand[sl] = demand_profile(
                cfg,
                hour_fraction[sl],
                weekday=date.weekday() < 5 and not flags.holiday,
                holiday=flags.holiday and not is_weekend(date),
            )

        # Weather; rain adds demand-side friction.
        weather = WeatherModel(interval_minutes=cfg.interval_minutes)
        temperature, precipitation = weather.generate(stamps, rng)
        rain_intensity = np.clip(precipitation, 0.0, 1.0)
        demand = demand + cfg.rain_demand_boost * rain_intensity

        # AR(1) demand noise shared by every segment (regional fluctuation).
        noise = _ar1(rng.normal(0.0, cfg.demand_noise_std, size=total), cfg.demand_noise_rho)
        demand = np.clip(demand + noise, 0.02, 1.2)

        # Per-segment demand variation (on/off-ramps, local access)
        # through the congestion law, then rain.
        segment_bias = rng.normal(0.0, 0.03, size=num_segments)
        seg_demand = np.clip(self._segment_demand(demand, segment_bias), 0.02, 1.2)
        rain_factor = 1.0 - (1.0 - cfg.rain_speed_factor) * rain_intensity
        free_flow = np.array([s.free_flow_kmh for s in roads.segments])
        speeds = free_flow[:, None] * congestion_speed_factor(cfg, seg_demand) * rain_factor

        # Incidents, then flash congestion.  Each (S, T) factor is
        # dropped once applied, so a long road never holds them all.
        incidents = sample_incidents(cfg, num_segments, rng, roads.target_index)
        incident_factor, event_flags = incident_masks(
            incidents,
            roads,
            total,
            upstream_decay=cfg.upstream_propagation_decay,
            delay_steps=cfg.propagation_delay_steps,
        )
        speeds *= incident_factor
        del seg_demand, incident_factor
        speeds *= self._flash_congestion(demand, rng)
        speeds = self._spatial_smoothing(self._shape_speeds(speeds, free_flow))

        # AR(1) measurement noise: one innovation stream per segment,
        # drawn as one C-order (S, T) block.
        speeds += _ar1(
            rng.normal(0.0, cfg.speed_noise_std, size=(num_segments, total)), cfg.speed_noise_rho
        )

        # Mild temporal smoothing so routine 5-min steps stay well within
        # +-30 %; genuine shocks (flash congestion, accident onsets) keep
        # most of their amplitude (matching the paper's reported maximum).
        # Accumulated in place, left to right, to hold few (S, T) arrays.
        padded = np.pad(speeds, ((0, 0), (1, 1)), mode="edge")
        speeds = 0.08 * padded[:, :-2]
        speeds += 0.84 * padded[:, 1:-1]
        speeds += 0.08 * padded[:, 2:]
        speeds = np.clip(speeds, cfg.min_speed_kmh, cfg.max_speed_kmh)

        return TrafficSeries(
            corridor=roads.as_corridor(),
            speeds=speeds,
            temperature=temperature,
            precipitation=precipitation,
            events=event_flags,
            hours=hours,
            day_types=day_types,
            timestamps=stamps,
            interval_minutes=cfg.interval_minutes,
        )


def simulate(config: SimulationConfig | None = None, corridor: Corridor | None = None) -> TrafficSeries:
    """One-call convenience wrapper: build a simulator and run it."""
    return TrafficSimulator(config=config, corridor=corridor).run()
