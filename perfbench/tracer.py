"""In-memory span tracer for the benchmark's traced runs.

A span is one call across a layer boundary: ``name`` (``<layer>.<what>``),
``start`` / ``end`` (``time.perf_counter`` seconds), the index of the
span that caused it (``parent``, ``-1`` at the root), the workload's
request id at the time (a tick, a fleet call or a training step) and,
for merged spans, the call ``count`` and summed duration ``dur``.

Spans are recorded in two ways, both from the benchmark's own files:

* :meth:`Tracer.span` — a context manager around a call the benchmark
  makes itself (``ForecastService.ingest_many``, ``APOTS.fit`` ...);
* :meth:`Patches.patch` — wraps a function or method of the program
  for the lifetime of a :class:`Patches` block, so calls the program
  makes internally (``SegmentStateStore.windows_many``,
  ``nn.LSTM.forward`` ...) are seen too.  Patches are undone on exit.

Leaf calls repeated under one parent within one request (every
``ForecastCache.get`` of a ``predict_many``) are merged into a single
span record carrying the call count, which keeps a traced serving run
to a few records per tick.  Self time — a span's duration minus the
time its child spans cover — is accumulated online per ``(phase,
name)``, so the per-layer breakdown never needs the records; they are
kept for :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer", "Patches"]

_NAME, _START, _END, _PARENT, _REQUEST, _COUNT, _DUR = range(7)


class _Frame:
    __slots__ = ("index", "name", "start", "child_time", "leaves", "has_child")

    def __init__(self, index: int, name: str, start: float):
        self.index = index
        self.name = name
        self.start = start
        self.child_time = 0.0
        self.leaves: dict[str, int] = {}
        self.has_child = False


class Tracer:
    """Nested spans kept in memory, self time aggregated per layer."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.phase = "setup"
        self.request_id = 0
        self.records: list[list[Any]] = []
        self._stack: list[_Frame] = []
        self._root_leaves: dict[str, int] = {}
        self._root_request = 0
        #: (phase, name) -> [calls, total seconds, self seconds]
        self.totals: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: (phase, name) -> summed counters attached with :meth:`count`
        self.counters: dict[tuple[str, str], float] = defaultdict(float)

    # ------------------------------------------------------------------
    def begin(self, name: str) -> _Frame | None:
        if not self.enabled:
            return None
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.has_child = True
        frame = _Frame(len(self.records), name, time.perf_counter())
        self.records.append(
            [name, frame.start, 0.0, parent.index if parent else -1, self.request_id, 1, 0.0]
        )
        self._stack.append(frame)
        return frame

    def end(self, frame: _Frame | None) -> None:
        if frame is None:
            return
        end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "spans must close in LIFO order"
        duration = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_time += duration
        totals = self.totals[(self.phase, frame.name)]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame.child_time
        if frame.has_child:
            record = self.records[frame.index]
            record[_END] = end
            record[_DUR] = duration
            return
        assert frame.index == len(self.records) - 1, "a childless span is the newest record"
        self.records.pop()
        self._merge_leaf(frame.name, frame.start, duration, parent)

    def _merge_leaf(self, name: str, start: float, duration: float, parent: _Frame | None) -> None:
        """Record a childless span, merged into an earlier leaf sibling."""
        if parent is not None:
            leaves = parent.leaves
        else:
            if self._root_request != self.request_id:
                self._root_leaves = {}
                self._root_request = self.request_id
            leaves = self._root_leaves
        earlier = leaves.get(name)
        if earlier is not None:
            merged = self.records[earlier]
            merged[_END] = start + duration
            merged[_COUNT] += 1
            merged[_DUR] += duration
        else:
            leaves[name] = len(self.records)
            self.records.append(
                [name, start, start + duration, parent.index if parent else -1,
                 self.request_id, 1, duration]
            )

    def leaf(self, name: str, start: float, duration: float) -> None:
        """Record a finished call that made no traced calls itself.

        The fast path for calls made thousands of times per request
        (a cache lookup per forecast): no frame is pushed.
        """
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_time += duration
            parent.has_child = True
        totals = self.totals[(self.phase, name)]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration
        self._merge_leaf(name, start, duration, parent)

    class _Span:
        __slots__ = ("tracer", "name", "frame")

        def __init__(self, tracer: "Tracer", name: str):
            self.tracer = tracer
            self.name = name

        def __enter__(self):
            self.frame = self.tracer.begin(self.name)
            return self

        def __exit__(self, *exc_info):
            self.tracer.end(self.frame)

    def span(self, name: str) -> "Tracer._Span":
        """Context manager recording one span around a block."""
        return Tracer._Span(self, name)

    @contextmanager
    def paused(self):
        """Record nothing inside the block (output checks, snapshots)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a counter of the current phase (ratios use these)."""
        if self.enabled:
            self.counters[(self.phase, name)] += amount

    def wrap(
        self, name: str, function: Callable, on_call: Callable | None = None, leaf: bool = False
    ) -> Callable:
        """``function`` recording a span per call while enabled.

        ``on_call(args, kwargs, result)`` runs after each traced call,
        outside the span, to attach computed counters (FLOPs, rows).
        ``leaf=True`` promises that ``function`` makes no traced calls
        and takes the cheaper :meth:`leaf` path.
        """
        tracer = self
        if leaf:

            @functools.wraps(function)
            def traced_leaf(*args, **kwargs):
                if not tracer.enabled:
                    return function(*args, **kwargs)
                start = time.perf_counter()
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.leaf(name, start, time.perf_counter() - start)
                if on_call is not None:
                    on_call(args, kwargs, result)
                return result

            return traced_leaf

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            frame = tracer.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(frame)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def stat(self, phase: str, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of one span name."""
        calls, total, self_time = self.totals.get((phase, name), (0, 0.0, 0.0))
        return int(calls), total, self_time

    def self_seconds(self, phase: str, *names: str) -> float:
        return sum(self.stat(phase, name)[2] for name in names)

    def layers_seen(self) -> set[str]:
        return {name.split(".", 1)[0] for _, name in self.totals}

    def self_seconds_by_layer(self, phase: str) -> dict[str, float]:
        """Total self time of each layer's spans in one phase."""
        layers: dict[str, float] = defaultdict(float)
        for (span_phase, name), (_, _, self_time) in self.totals.items():
            if span_phase == phase:
                layers[name.split(".", 1)[0]] += self_time
        return dict(sorted(layers.items()))

    def write(self, path: Path) -> int:
        """Write every span record as one JSON line; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, request, count, dur in self.records:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request_id": request,
                            "count": count,
                            "dur": dur,
                        }
                    )
                    + "\n"
                )
        return len(self.records)


class Patches:
    """Replace program attributes with traced wrappers; undo on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(
        self,
        owner: Any,
        attribute: str,
        name: str,
        on_call: Callable | None = None,
        leaf: bool = False,
    ) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, self.tracer.wrap(name, original, on_call, leaf))

    def replace(self, owner: Any, attribute: str, value: Any) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()
