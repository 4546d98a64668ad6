"""Row layouts: which segment rows feed each target's window.

Every window the repo builds — offline in :mod:`repro.data.features`,
online in :class:`repro.serving.SegmentStateStore` — reads its speed rows
through a :class:`GraphWindowLayout`: ``rows[s]`` lists the segment id
feeding each speed row of target ``s``'s image, ``-1`` marking padding.
Feature configs hand one out via ``config.layout_for(num_segments)``.

Layouts are made in two ways, and how a layout was made decides which of its
segments the model may serve:

* :meth:`GraphWindowLayout.from_neighbourhoods` — a road graph's k-hop
  sets under the canonical padded rule below.  Padding absorbs short
  neighbourhoods, so every segment is servable.
* :func:`corridor_layout` — the paper's contiguous ``±m`` rows
  (Eq 5/6).  A segment with fewer than ``m`` neighbours on a side keeps
  its in-range ids and ``-1`` where the corridor ends, and is
  *unservable*: the paper's adjacent-speed matrix needs all ``2m + 1``
  real rows, so such segments are served by the naive fallback.

Graph layout rule (per target ``s`` with sorted k-hop set ``N(s)``):
split ``N(s)`` into ``lower = [t < s]`` and ``upper = [t > s]``.  With
``p = max_s |lower(s)|`` and ``q = max_s |upper(s)|`` over all segments,
the image has ``p + 1 + q`` speed rows; ``lower`` is right-aligned
ending at row ``p - 1``, the target occupies row ``p`` and ``upper`` is
left-aligned from row ``p + 1``.  Because BFS ids are contiguous within
a neighbourhood block, a corridor interior neighbourhood has exactly
``k`` lower and ``k`` upper ids and the rule reproduces ``[s-k .. s+k]``
in order — the same rows :func:`corridor_layout` gives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

__all__ = ["GraphWindowLayout", "CorridorLayout", "corridor_layout"]


@dataclass(frozen=True)
class GraphWindowLayout:
    """Canonical padded neighbour layout of every segment's input image.

    ``rows[s]`` lists, for target segment ``s``, the segment id feeding
    each speed row of its image, with ``-1`` marking padding rows.  The
    target id ``s`` always sits at index ``target_row``.
    """

    num_segments: int
    k: int
    target_row: int
    num_rows: int
    rows: tuple[tuple[int, ...], ...]
    _rows_array: np.ndarray = field(init=False, repr=False, compare=False)
    _row_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_segments < 1:
            raise ValueError("layout needs at least one segment")
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if not 0 <= self.target_row < self.num_rows:
            raise ValueError("target_row outside 0..num_rows-1")
        if len(self.rows) != self.num_segments:
            raise ValueError("rows must have one entry per segment")
        for s, row in enumerate(self.rows):
            if len(row) != self.num_rows:
                raise ValueError(f"rows[{s}] has {len(row)} entries, expected {self.num_rows}")
            if row[self.target_row] != s:
                raise ValueError(f"rows[{s}] does not place the target at target_row")
            for t in row:
                if t != -1 and not 0 <= t < self.num_segments:
                    raise ValueError(f"rows[{s}] references unknown segment {t}")
        rows_array = np.array(self.rows, dtype=np.int64)
        object.__setattr__(self, "_rows_array", rows_array)
        object.__setattr__(self, "_row_mask", rows_array >= 0)

    @property
    def rows_array(self) -> np.ndarray:
        """(num_segments, num_rows) int64 row->segment map, -1 = padding."""
        return self._rows_array

    @property
    def row_mask(self) -> np.ndarray:
        """(num_segments, num_rows) bool mask, True where a real segment."""
        return self._row_mask

    @property
    def servable(self) -> np.ndarray:
        """(num_segments,) bool: whose windows the model may answer.

        Padding stands in for absent neighbours, so every segment of a
        graph layout is servable.
        """
        return np.ones(self.num_segments, dtype=bool)

    def valid_rows(self, segment_id: int) -> tuple[int, ...]:
        """The real (non-padding) segment ids in ``segment_id``'s image."""
        return tuple(t for t in self.rows[segment_id] if t >= 0)

    @staticmethod
    def from_neighbourhoods(
        neighbourhoods: Mapping[int, Sequence[int]] | Sequence[Sequence[int]],
        num_segments: int,
        k: int,
    ) -> "GraphWindowLayout":
        """Build the canonical layout from per-segment k-hop sets.

        ``neighbourhoods[s]`` must be the sorted id list within ``k``
        hops of ``s`` **including ``s`` itself** (the contract of
        ``RoadGraph.k_hop_neighbourhood``).
        """
        lowers: list[list[int]] = []
        uppers: list[list[int]] = []
        for s in range(num_segments):
            hood = list(neighbourhoods[s])
            if s not in hood:
                raise ValueError(f"neighbourhood of {s} must include itself")
            if hood != sorted(set(hood)):
                raise ValueError(f"neighbourhood of {s} must be sorted and unique")
            lowers.append([t for t in hood if t < s])
            uppers.append([t for t in hood if t > s])
        p = max(len(lo) for lo in lowers)
        q = max(len(up) for up in uppers)
        num_rows = p + 1 + q
        rows = []
        for s in range(num_segments):
            row = [-1] * num_rows
            lo, up = lowers[s], uppers[s]
            row[p - len(lo) : p] = lo
            row[p] = s
            row[p + 1 : p + 1 + len(up)] = up
            rows.append(tuple(row))
        return GraphWindowLayout(
            num_segments=num_segments,
            k=k,
            target_row=p,
            num_rows=num_rows,
            rows=tuple(rows),
        )


@dataclass(frozen=True)
class CorridorLayout(GraphWindowLayout):
    """The corridor's contiguous ``±m`` rows (build with :func:`corridor_layout`).

    Only segments whose ``2m + 1`` rows are all real are servable; the
    rest keep their in-range neighbour ids so their observations still
    reach every window that reads them.
    """

    @property
    def servable(self) -> np.ndarray:
        return self._row_mask.all(axis=1)


@lru_cache(maxsize=32)
def corridor_layout(num_segments: int, m: int) -> CorridorLayout:
    """Rows ``s - m .. s + m`` of every segment, ``-1`` past either end.

    Cached: every dataset, store and fleet asks for its layout, and a
    5,000-segment build (mostly ``__post_init__`` validation) takes
    milliseconds.  Layouts are immutable, so sharing one is safe.
    """
    rows = np.arange(num_segments)[:, None] + np.arange(-m, m + 1)[None, :]
    rows[(rows < 0) | (rows >= num_segments)] = -1
    return CorridorLayout(
        num_segments=num_segments,
        k=m,
        target_row=m,
        num_rows=2 * m + 1,
        rows=tuple(map(tuple, rows.tolist())),
    )
