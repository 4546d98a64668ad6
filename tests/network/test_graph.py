"""Tests for :mod:`repro.network.graph` — topology, BFS order, corridor views."""

import numpy as np
import pytest

from repro.network import RoadGraph, from_corridor, grid_city, ring_and_spokes
from repro.network.graph import Junction
from repro.traffic import Corridor
from repro.traffic.types import RoadSegment


class TestGenerators:
    def test_grid_city_counts(self, grid):
        # 4x4 junctions, every neighbouring pair a two-way street.
        assert len(grid) == 2 * (4 * 3 + 4 * 3) == 48
        assert len(grid.junctions) == 16
        assert grid.num_zones == 4

    def test_ring_and_spokes_counts(self, ring):
        assert len(ring) == 6 * 6  # ring arcs + spokes + spurs, two-way
        assert len(ring.junctions) == 13  # hub + 6 ring + 6 outer
        assert ring.num_zones == 7

    def test_generators_deterministic(self, grid, ring):
        assert grid == grid_city(4, 4, seed=0)
        assert ring == ring_and_spokes(num_spokes=6, seed=0)

    def test_seed_changes_attributes_not_topology(self, grid):
        other = grid_city(4, 4, seed=1)
        assert other != grid
        assert other.tails == grid.tails and other.heads == grid.heads

    def test_bfs_ordered_by_construction(self, grid, ring):
        assert grid.is_bfs_ordered()
        assert ring.is_bfs_ordered()

    def test_target_is_central(self, grid):
        positions = grid.segment_positions()
        centre = positions.mean(axis=0)
        distances = np.linalg.norm(positions - centre, axis=1)
        assert distances[grid.target_index] == pytest.approx(distances.min())

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError, match="at least 2x2"):
            grid_city(1, 5)
        with pytest.raises(ValueError, match="at least 3 spokes"):
            ring_and_spokes(num_spokes=2)


class TestTopology:
    def test_two_way_streets_exclude_reverse_lane(self, grid):
        # No segment may feed (or be fed by) its own reverse carriageway.
        for seg in range(len(grid)):
            reverse = [
                other
                for other in range(len(grid))
                if grid.tails[other] == grid.heads[seg]
                and grid.heads[other] == grid.tails[seg]
            ]
            for rev in reverse:
                assert rev not in grid.downstream_of(seg)
                assert rev not in grid.upstream_of(seg)

    def test_downstream_upstream_are_duals(self, grid):
        for seg in range(len(grid)):
            for down in grid.downstream_of(seg):
                assert seg in grid.upstream_of(down)

    def test_interior_signal_junction_degree(self, grid):
        # An interior junction joins 4 streets; each incoming segment can
        # continue onto 3 others (straight, left, right — no U-turn).
        interior = [j.junction_id for j in grid.junctions if j.kind == "signal"]
        assert interior  # 4x4 grid has a 2x2 interior
        for seg in range(len(grid)):
            if grid.heads[seg] in interior:
                assert len(grid.downstream_of(seg)) == 3

    def test_k_hop_matches_plus_minus_m_on_corridor(self):
        corridor = Corridor.gyeongbu(rng=np.random.default_rng(0))
        graph = from_corridor(corridor)
        n = len(graph)
        for seg in (0, 1, n // 2, n - 1):
            for k in (0, 1, 2):
                expected = list(range(max(0, seg - k), min(n, seg + k + 1)))
                assert graph.k_hop_neighbourhood(seg, k) == expected

    def test_k_hop_validation(self, grid):
        with pytest.raises(ValueError, match="non-negative"):
            grid.k_hop_neighbourhood(0, -1)
        with pytest.raises(ValueError, match="outside graph"):
            grid.k_hop_neighbourhood(len(grid), 1)

    def test_adjacency_weights_are_free_flow_minutes(self, grid):
        adjacency = grid.adjacency()
        assert set(adjacency) == set(range(len(grid)))
        for seg, edges in adjacency.items():
            assert [j for j, _ in edges] == list(grid.downstream_of(seg))
            for j, weight in edges:
                expected = grid.segments[j].length_km / grid.segments[j].free_flow_kmh * 60.0
                assert weight == pytest.approx(expected)


class TestCorridorViews:
    def test_from_corridor_is_identity_path(self):
        corridor = Corridor.gyeongbu(rng=np.random.default_rng(0))
        graph = from_corridor(corridor)
        assert len(graph) == len(corridor)
        assert graph.corridor is corridor
        assert graph.as_corridor() is corridor
        assert graph.is_bfs_ordered()
        for seg in range(len(graph) - 1):
            assert graph.downstream_of(seg) == (seg + 1,)
        assert graph.downstream_of(len(graph) - 1) == ()

    def test_as_corridor_wraps_generated_graph(self, grid):
        corridor = grid.as_corridor()
        assert len(corridor) == len(grid)
        assert corridor.target_index == grid.target_index

    def test_path_corridor_renumbers_and_validates(self, grid):
        start = 0
        path = [start]
        while len(path) < 4:
            path.append(grid.downstream_of(path[-1])[0])
        corridor = grid.path_corridor(path)
        assert len(corridor) == 4
        assert [s.segment_id for s in corridor.segments] == [0, 1, 2, 3]
        assert corridor.segments[2].name == grid.segments[path[2]].name
        disconnected = [path[0], path[0]]  # a segment never feeds itself
        with pytest.raises(ValueError, match="not connected"):
            grid.path_corridor(disconnected)


class TestValidation:
    def make(self, **overrides):
        kwargs = dict(
            segments=tuple(
                RoadSegment(i, f"s{i}", 1.0, 60.0, 1800.0) for i in range(2)
            ),
            junctions=tuple(
                Junction(i, "through", float(i), 0.0) for i in range(3)
            ),
            tails=(0, 1),
            heads=(1, 2),
            zone_of=(0, 0),
            num_zones=1,
            target_index=0,
        )
        kwargs.update(overrides)
        return RoadGraph(**kwargs)

    def test_valid_minimal_graph(self):
        assert len(self.make()) == 2

    def test_rejects_misnumbered_segments(self):
        bad = tuple(RoadSegment(i + 1, f"s{i}", 1.0, 60.0, 1800.0) for i in range(2))
        with pytest.raises(ValueError, match="ids must equal positions"):
            self.make(segments=bad)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            self.make(tails=(0, 1), heads=(0, 2))

    def test_rejects_unknown_junction(self):
        with pytest.raises(ValueError, match="unknown junction"):
            self.make(heads=(1, 9))

    def test_rejects_unknown_junction_kind(self):
        # The kind decides queue spillback, so a misspelt one must not pass.
        with pytest.raises(ValueError, match="unknown junction kind"):
            Junction(junction_id=0, kind="signl", x=0.0, y=0.0)

    def test_rejects_bad_zone(self):
        with pytest.raises(ValueError, match="zone_of"):
            self.make(zone_of=(0, 5))

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError, match="target_index"):
            self.make(target_index=7)
