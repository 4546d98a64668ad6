"""Tests for :class:`repro.fleet.ShardMap` (deterministic routing)."""

from __future__ import annotations

import pytest

from repro.core import load_model
from repro.data import FeatureConfig
from repro.fleet import ShardMap
from repro.network import graph_feature_config, grid_city, ring_and_spokes
from repro.serving import UnknownSegmentError

SHARD_COUNTS = (1, 2, 4)


class TestShardMap:
    @pytest.mark.parametrize("num_segments,num_shards", [(9, 1), (9, 2), (9, 4), (100, 7), (5, 5)])
    def test_partition_is_contiguous_balanced_and_complete(self, num_segments, num_shards):
        shard_map = ShardMap(num_segments, num_shards)
        covered = []
        sizes = []
        previous_hi = 0
        for shard in range(num_shards):
            lo, hi = shard_map.owned_range(shard)
            assert lo == previous_hi, "ranges must tile the corridor contiguously"
            assert hi > lo, "every shard must own at least one segment"
            previous_hi = hi
            sizes.append(hi - lo)
            covered.extend(range(lo, hi))
        assert covered == list(range(num_segments))
        assert max(sizes) - min(sizes) <= 1, f"unbalanced shard sizes {sizes}"

    def test_shard_of_matches_owned_ranges(self):
        shard_map = ShardMap(17, 4)
        for shard in range(4):
            lo, hi = shard_map.owned_range(shard)
            for segment in range(lo, hi):
                assert shard_map.shard_of(segment) == shard

    def test_map_is_deterministic(self):
        a, b = ShardMap(23, 5), ShardMap(23, 5)
        assert [a.owned_range(s) for s in range(5)] == [b.owned_range(s) for s in range(5)]

    def test_single_shard_owns_everything(self):
        shard_map = ShardMap(9, 1)
        assert shard_map.owned_range(0) == (0, 9)
        assert all(shard_map.shard_of(s) == 0 for s in range(9))

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="shards"):
            ShardMap(4, 5)
        with pytest.raises(ValueError, match="positive"):
            ShardMap(4, 0)
        with pytest.raises(ValueError, match="positive"):
            ShardMap(0, 1)
        shard_map = ShardMap(9, 2)
        with pytest.raises(UnknownSegmentError, match="outside corridor"):
            shard_map.shard_of(9)
        with pytest.raises(UnknownSegmentError, match="outside corridor"):
            shard_map.check_segment(-1)
        with pytest.raises(ValueError, match="shard 2"):
            shard_map.owned_range(2)


class TestCoveringShards:
    """Brute force: a segment's observations reach exactly the shards
    owning some segment whose window reads it."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("num_segments, m", [(9, 2), (9, 0), (17, 3), (5, 2)])
    def test_corridor_covers_the_clipped_halo(self, num_segments, m, shards):
        shard_map = ShardMap(num_segments, shards)
        covering = shard_map.covering_shards(FeatureConfig(m=m).layout_for(num_segments))
        for s in range(num_segments):
            expected = {
                shard_map.shard_of(t) for t in range(num_segments) if abs(t - s) <= m
            }
            assert covering[s] == tuple(sorted(expected))

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_corridor_checkpoint(self, fleet_checkpoint, tiny_series, shards):
        features = load_model(fleet_checkpoint).features
        n, m = tiny_series.num_segments, features.m
        shard_map = ShardMap(n, shards)
        covering = shard_map.covering_shards(features.layout_for(n))
        for s in range(n):
            expected = {shard_map.shard_of(t) for t in range(n) if abs(t - s) <= m}
            assert covering[s] == tuple(sorted(expected))

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize(
        "factory, k",
        [
            pytest.param(lambda: grid_city(3, 4, seed=1), 1, id="grid3x4-k1"),
            pytest.param(lambda: grid_city(4, 4, seed=2), 2, id="grid4x4-k2"),
            pytest.param(lambda: ring_and_spokes(5, seed=6), 3, id="ring5-k3"),
        ],
    )
    def test_graph_covers_the_k_hop_owners(self, factory, k, shards):
        graph = factory()
        n = len(graph)
        shard_map = ShardMap(n, shards)
        covering = shard_map.covering_shards(graph_feature_config(graph, k).layout_for(n))
        for s in range(n):
            expected = {shard_map.shard_of(t) for t in graph.k_hop_neighbourhood(s, k)}
            assert covering[s] == tuple(sorted(expected))
