"""Graph-neighbourhood windows: the city-scale generalisation of the
corridor pipeline.

On a :class:`repro.network.graph.RoadGraph` the analogue of the
corridor's ``±m`` window is the ``k_hop_neighbourhood``; a
:class:`GraphFeatureConfig` carries the canonical padded layout of those
sets (:class:`GraphWindowLayout`, rule in :mod:`repro.data.layout`).
Windows come from :func:`build_graph_features` alone, and
datasets from the one :class:`~repro.data.TrafficDataset` implementation;
this module adds only the multi-target constructor.

On a :func:`repro.network.graph.from_corridor` path graph the layout row
of an interior target is exactly ``corridor.adjacent_indices(k)``, so
windows, splits, rollouts and fitted weights reduce **bitwise** to the
corridor pipeline (pinned by tests).
"""

from __future__ import annotations

from typing import Iterable

from ..traffic.types import TrafficSeries
from .dataset import TrafficDataset
from .features import FeatureScalers, GraphFeatureConfig, build_graph_features
from .layout import GraphWindowLayout
from .split import SplitIndices

__all__ = [
    "GraphWindowLayout",
    "GraphFeatureConfig",
    "build_graph_features",
    "GraphTrafficDataset",
]


class GraphTrafficDataset(TrafficDataset):
    """A :class:`TrafficDataset` over several targets of a graph layout.

    Windows stack target-major: block ``i`` holds every window of
    ``targets[i]`` (default: the series' designated target).
    """

    def __init__(
        self,
        series: TrafficSeries,
        config: GraphFeatureConfig,
        targets: Iterable[int] | None = None,
        split: SplitIndices | None = None,
        seed: int = 0,
        scalers: FeatureScalers | None = None,
    ):
        self._build(series, config, targets, split, seed, scalers)

    # perfbench patches rollout_batch in each dataset class's own __dict__.
    rollout_batch = TrafficDataset.rollout_batch
