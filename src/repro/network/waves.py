"""The speed-field engine on a road graph, plus what a graph adds.

:class:`NetworkSimulator` is :class:`repro.traffic.simulator.TrafficSimulator`
run over a :class:`~repro.network.graph.RoadGraph`: the same ``run()``
body draws the field, walking ``upstream_of`` for incident shockwaves
(split across the branches of a merge) and flash spill, and
``neighbours`` for spatial smoothing.  The subclass adds only what a
graph brings:

* **demand weights** scale the shared demand per segment (gravity OD,
  :mod:`repro.network.demand`);
* a **compiled scenario schedule** adds demand, multiplies speeds,
  raises event flags and adds precipitation — compiled rng-free, so a
  scenario run shares every random draw with its baseline;
* **queue spillback**, a per-tick queue state that lets congestion on
  a segment propagate backwards over time (the LWR-flavoured behaviour
  a static mask cannot express).  It acts only across bottleneck
  junctions (merge, ramp, signal), never across a ``"through"``
  junction, which is a plain segment boundary.

A :func:`~repro.network.graph.from_corridor` graph has only
``"through"`` interior junctions, so it runs the corridor's physics
exactly: with no scenario and all-ones (or no) weights its field is
bitwise the corridor simulator's, and a scenario on it moves nothing
before its first step.

Output is an ordinary :class:`~repro.traffic.types.TrafficSeries` (the
graph wrapped via :meth:`RoadGraph.as_corridor`), so the feature
pipeline, trainers, serving and fleet consume network scenarios
unchanged.
"""

from __future__ import annotations

import numpy as np

from ..traffic.simulator import TrafficSimulator
from ..traffic.types import SimulationConfig, TrafficSeries
from .graph import RoadGraph
from .scenarios import Scenario, compile_scenario

__all__ = ["NetworkSimulator", "simulate_network"]

# Queue spillback constants (module-level so tests can pin them).
SPILL_RHO = 0.55  # per-tick queue persistence (memory of past congestion)
SPILL_GAIN = 0.35  # how fast congestion above the onset feeds the queue
SPILL_ONSET = 0.5  # congestion level (1 - v/v_free) where queues start
QUEUE_MAX = 0.45  # cap on the queue state and on the speed reduction
SPILL_JUNCTIONS = frozenset({"merge", "ramp", "signal"})  # bottlenecks queues spill across


class NetworkSimulator(TrafficSimulator):
    """Generates a :class:`TrafficSeries` over a :class:`RoadGraph`."""

    def __init__(
        self,
        graph: RoadGraph,
        config: SimulationConfig | None = None,
        *,
        demand_weights: np.ndarray | None = None,
        scenario: Scenario | None = None,
    ):
        super().__init__(config, graph)
        self.graph = graph
        if demand_weights is not None:
            demand_weights = np.asarray(demand_weights, dtype=np.float64)
            if demand_weights.shape != (len(graph),):
                raise ValueError(
                    f"demand_weights must be ({len(graph)},), got {demand_weights.shape}"
                )
            if not (np.isfinite(demand_weights) & (demand_weights > 0)).all():
                raise ValueError("demand_weights must be finite and positive")
        self.demand_weights = demand_weights
        self.scenario = scenario
        self.schedule = (
            compile_scenario(scenario, graph, self.config.total_steps)
            if scenario is not None
            else None
        )

    def _segment_demand(self, demand: np.ndarray, segment_bias: np.ndarray) -> np.ndarray:
        """Weighted shared demand plus bias, plus the scenario's demand boost."""
        if self.demand_weights is not None:
            demand = demand * self.demand_weights[:, None]
        seg_demand = super()._segment_demand(demand, segment_bias)
        if self.schedule is not None:
            seg_demand = seg_demand + self.schedule.demand_boost
        return seg_demand

    def _shape_speeds(self, speeds: np.ndarray, free_flow: np.ndarray) -> np.ndarray:
        """The scenario's speed factor, then queue spillback."""
        if self.schedule is not None:
            speeds = speeds * self.schedule.speed_factor
        return self._queue_spillback(speeds, free_flow)

    def _queue_spillback(self, speeds: np.ndarray, free_flow: np.ndarray) -> np.ndarray:
        """Per-tick queue state spilling backwards across bottleneck junctions.

        Each segment accumulates a queue ``q`` (AR(1) with persistence
        ``SPILL_RHO``) from congestion above ``SPILL_ONSET``; upstream
        segments lose speed in proportion to the queues of the segments
        they feed, split across incoming branches.  Only junctions whose
        kind is in ``SPILL_JUNCTIONS`` pass a queue back.  Deterministic
        — no rng — so baseline and scenario runs diverge only through
        the speeds themselves.
        """
        graph = self.graph
        edge_up: list[int] = []
        edge_down: list[int] = []
        edge_weight: list[float] = []
        for down in range(len(graph)):
            if graph.junctions[graph.tails[down]].kind not in SPILL_JUNCTIONS:
                continue
            ups = graph.upstream_of(down)
            for up in ups:
                edge_up.append(up)
                edge_down.append(down)
                edge_weight.append(1.0 / len(ups))
        if not edge_up:
            return speeds
        up_idx = np.asarray(edge_up)
        down_idx = np.asarray(edge_down)
        weight = np.asarray(edge_weight)

        queue = np.zeros(len(graph))
        for t in range(speeds.shape[1]):
            congestion = 1.0 - speeds[:, t] / free_flow
            queue = np.clip(
                SPILL_RHO * queue + SPILL_GAIN * np.maximum(congestion - SPILL_ONSET, 0.0),
                0.0,
                QUEUE_MAX,
            )
            spill = np.zeros(len(graph))
            np.add.at(spill, up_idx, queue[down_idx] * weight)
            speeds[:, t] *= np.clip(1.0 - spill, 1.0 - QUEUE_MAX, 1.0)
        return speeds

    def run(self) -> TrafficSeries:
        """Draw the field, then lay the scenario's events and rain on the channels."""
        series = super().run()
        if self.schedule is not None:
            series.events = np.maximum(series.events, self.schedule.event_flags)
            series.precipitation = series.precipitation + self.schedule.precipitation_extra
        return series


def simulate_network(
    graph: RoadGraph,
    config: SimulationConfig | None = None,
    *,
    demand_weights: np.ndarray | None = None,
    scenario: Scenario | None = None,
) -> TrafficSeries:
    """One-call convenience wrapper: build a network simulator and run it."""
    return NetworkSimulator(
        graph, config, demand_weights=demand_weights, scenario=scenario
    ).run()
