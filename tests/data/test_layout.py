"""The corridor as a row layout: ``FeatureConfig.layout_for``.

Interior segments read exactly the paper's ``±m`` rows
(``corridor.adjacent_indices``); edge segments keep only their in-range
neighbour ids, ``-1`` where the corridor ends, and are unservable — the
rule behind the naive edge service.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.data import FeatureConfig, build_graph_features
from repro.network import graph_window_layout, grid_city


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_interior_rows_are_the_adjacent_indices(tiny_series, m):
    corridor = tiny_series.corridor
    n = len(corridor)
    layout = FeatureConfig(m=m).layout_for(n)
    assert (layout.target_row, layout.num_rows) == (m, 2 * m + 1)
    for s in range(m, n - m):
        expected = dataclasses.replace(corridor, target_index=s).adjacent_indices(m)
        assert list(layout.rows[s]) == expected
        assert layout.servable[s]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_edge_segments_are_unservable_and_list_in_range_neighbours(m):
    n = 9
    layout = FeatureConfig(m=m).layout_for(n)
    edges = [s for s in range(n) if s < m or s >= n - m]
    assert edges
    for s in edges:
        in_range = [t for t in range(s - m, s + m + 1) if 0 <= t < n]
        assert layout.valid_rows(s) == tuple(in_range)
        assert list(layout.rows[s]) == [t if 0 <= t < n else -1 for t in range(s - m, s + m + 1)]
        assert not layout.servable[s]
    assert np.flatnonzero(layout.servable).tolist() == list(range(m, n - m))


def test_graph_layouts_serve_every_segment():
    layout = graph_window_layout(grid_city(3, 3, seed=0), 2)
    assert not layout.row_mask.all()  # corner segments are padded ...
    assert layout.servable.all()  # ... and still servable


def test_offline_windows_refuse_an_edge_target(tiny_series):
    with pytest.raises(ValueError, match="neighbours on both sides"):
        build_graph_features(tiny_series, FeatureConfig(), [0])
