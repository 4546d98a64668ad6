"""Rolling per-segment state: from an observation stream to model inputs.

The offline pipeline (:func:`repro.data.features.build_graph_features`)
sees a whole :class:`~repro.traffic.types.TrafficSeries` at once and
slides windows over it.  Online, observations arrive one 5-minute tick at a
time, per segment.  :class:`SegmentStateStore` keeps fixed-capacity ring
buffers — speed and event flags consolidated into ``(num_segments,
capacity)`` arrays, plus one corridor-wide context ring (temperature,
precipitation, day-type bits) — and materialises, on demand, exactly
the ``(image, day_type, flat)`` arrays the predictors consume,
bit-for-bit identical to what the offline pipeline would produce for the
same steps (covered by ``tests/serving/test_state.py`` and
``test_graph_state.py``).  Both read rows through the model config's
row layout (``features.layout_for(num_segments)``), which also decides
which segments the model may serve at all.

:meth:`SegmentStateStore.windows_many` assembles many segments' windows
with a handful of vectorised gathers instead of per-segment python
loops; it is the reason ``predict_many`` amortises not just the model
forward but the feature assembly as well.  The single-segment
:meth:`~SegmentStateStore.window` routes through the same code, so
batched and per-request assembly are identical by construction.

Streams are validated strictly on ingest: an observation that goes
backwards raises :class:`StaleObservationError` and one that skips ticks
raises :class:`StreamGapError`; a broken feed must be restarted with
:meth:`SegmentStateStore.reset_segment` rather than silently stitched.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from ..data.features import FeatureConfig, FeatureScalers
from .errors import (
    IncompleteWindowError,
    InvalidReadingError,
    StaleObservationError,
    StreamGapError,
    UnknownSegmentError,
)

__all__ = ["Observation", "WindowView", "SegmentStateStore", "check_observation"]

#: Context-ring column layout: temperature, precipitation, 4 day-type bits.
_CTX_TEMP, _CTX_PRECIP, _CTX_DAY = 0, 1, slice(2, 6)
_DEFAULT_DAY_TYPE = (1.0, 0.0, 0.0, 0.0)  # plain weekday
#: Plausible speed of a reading (the attacks' PlausibilityBox range).
_SPEED_RANGE_KMH = (0.0, 130.0)


@dataclass(frozen=True)
class Observation:
    """One segment's reading for one 5-minute tick.

    ``step`` is the absolute tick index of the feed (consecutive integers).
    Corridor-wide context fields are optional; when ``None`` the store
    carries the previous tick's value forward (a weather feed typically
    updates much less often than the speed feed).
    """

    segment_id: int
    step: int
    speed_kmh: float
    event: float = 0.0
    temperature: float | None = None
    precipitation: float | None = None
    day_type: tuple[float, float, float, float] | None = None


def check_observation(observation: Observation, latest: int) -> None:
    """Raise unless ``observation`` may follow step ``latest`` of its stream.

    ``latest < 0`` means the stream is empty (any step may open it).
    Stream order: :class:`StaleObservationError` on a step at or before
    ``latest``, :class:`StreamGapError` on skipped steps.  Values:
    :class:`InvalidReadingError` on a non-finite or implausible speed, or
    a non-finite event, temperature or precipitation — any of which would
    poison every window that reads the segment.
    """
    obs = observation
    seg, step = obs.segment_id, obs.step
    if latest >= 0:
        if step <= latest:
            raise StaleObservationError(
                f"segment {seg}: observation for step {step} arrived after "
                f"step {latest} was already ingested (out of order)"
            )
        if step > latest + 1:
            raise StreamGapError(
                f"segment {seg}: stream skipped steps {latest + 1}..{step - 1}; "
                f"call reset_segment({seg}) to restart the stream"
            )
    lo, hi = _SPEED_RANGE_KMH
    if not lo <= obs.speed_kmh <= hi:  # also rejects NaN
        raise InvalidReadingError(
            f"segment {seg} step {step}: speed {obs.speed_kmh} km/h "
            f"is outside the plausible range [{lo:g}, {hi:g}]"
        )
    for name in ("event", "temperature", "precipitation"):
        value = getattr(obs, name)
        if value is not None and not math.isfinite(value):
            raise InvalidReadingError(f"segment {seg} step {step}: {name} {value} is not finite")


@dataclass(frozen=True)
class WindowView:
    """A materialised model input window for one segment.

    ``fingerprint`` identifies the exact window contents (and end step),
    so it changes whenever a new observation advances the window — the
    forecast cache keys on it.
    """

    segment_id: int
    end_step: int
    target_step: int
    image: np.ndarray  # (image_rows, alpha) scaled
    day_type: np.ndarray  # (4,)
    flat: np.ndarray  # (flat_dim,)
    fingerprint: str
    last_speed_kmh: float


class _ContextRing:
    """Fixed-capacity ring of context rows keyed by consecutive steps.

    ``count`` tracks the length of the *contiguous* run ending at
    ``latest``; a push that is not ``latest + 1`` restarts the run.
    """

    __slots__ = ("data", "capacity", "latest", "count")

    def __init__(self, capacity: int, width: int):
        self.data = np.zeros((capacity, width), dtype=np.float64)
        self.capacity = capacity
        self.latest: int | None = None
        self.count = 0

    def push(self, step: int, row: np.ndarray) -> None:
        if self.latest is not None and step == self.latest + 1:
            self.count = min(self.count + 1, self.capacity)
        else:
            self.count = 1
        self.data[step % self.capacity] = row
        self.latest = step

    def value_at(self, step: int) -> np.ndarray:
        return self.data[step % self.capacity]

    def has(self, step: int) -> bool:
        return self.latest is not None and self.latest - self.count < step <= self.latest

    def covers(self, end_steps: np.ndarray, n: int) -> np.ndarray:
        """Whether the ``n`` consecutive rows ending at each end step are held."""
        if self.latest is None:
            return np.zeros(len(end_steps), dtype=bool)
        return (end_steps <= self.latest) & (end_steps - n + 1 > self.latest - self.count)


class SegmentStateStore:
    """Ring-buffered rolling state for every segment of a corridor.

    Parameters
    ----------
    num_segments:
        Corridor length; observations and queries index into it.
    features:
        Window geometry of the model being served (alpha, m, mask); its
        ``layout_for(num_segments)`` decides which rows feed each window
        and which segments are servable.
    scalers:
        The model's train-fitted scalers — raw km/h, degrees and mm go in,
        model-scaled features come out.
    interval_minutes:
        Tick length; used to derive the hour-of-day channel from steps.
    capacity:
        Ring capacity per segment (default: exactly ``alpha``).
    """

    def __init__(
        self,
        num_segments: int,
        features: FeatureConfig,
        scalers: FeatureScalers,
        interval_minutes: int = 5,
        capacity: int | None = None,
    ):
        if num_segments < 1:
            raise ValueError("num_segments must be positive")
        if (24 * 60) % interval_minutes != 0:
            raise ValueError("interval_minutes must divide a day evenly")
        self.num_segments = num_segments
        self.features = features
        self.scalers = scalers
        # Which rows feed each window, and which segments are servable.
        self.layout = features.layout_for(num_segments)
        self.interval_minutes = interval_minutes
        self.steps_per_day = (24 * 60) // interval_minutes
        capacity = features.alpha if capacity is None else capacity
        if capacity < features.alpha:
            raise ValueError(f"capacity {capacity} cannot hold an alpha={features.alpha} window")
        self._capacity = capacity
        self._speed_data = np.zeros((num_segments, capacity), dtype=np.float64)
        self._event_data = np.zeros((num_segments, capacity), dtype=np.float64)
        self._latest = np.full(num_segments, -1, dtype=np.int64)  # -1 = no data
        self._count = np.zeros(num_segments, dtype=np.int64)  # contiguous run length
        self._context = _ContextRing(capacity, width=6)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _check_segment(self, segment_id: int) -> None:
        if not 0 <= segment_id < self.num_segments:
            raise UnknownSegmentError(
                f"segment {segment_id} outside corridor 0..{self.num_segments - 1}"
            )

    def ingest(self, observation: Observation) -> None:
        """Validate and absorb one observation.

        Raises :class:`StaleObservationError` on out-of-order/duplicate
        steps, :class:`StreamGapError` on skipped steps and
        :class:`InvalidReadingError` on implausible values — all before
        any state changes.
        """
        obs = observation
        self._check_segment(obs.segment_id)
        seg, step = obs.segment_id, obs.step
        latest = int(self._latest[seg])
        check_observation(obs, latest)
        slot = step % self._capacity
        self._speed_data[seg, slot] = obs.speed_kmh
        self._event_data[seg, slot] = float(obs.event)
        self._count[seg] = min(int(self._count[seg]) + 1, self._capacity) if step == latest + 1 else 1
        self._latest[seg] = step
        self._ingest_context(obs)

    def ingest_many(self, observations) -> int:
        """Ingest an iterable of observations; returns how many."""
        n = 0
        for obs in observations:
            self.ingest(obs)
            n += 1
        return n

    def _ingest_context(self, obs: Observation) -> None:
        ctx = self._context
        if ctx.latest is not None and obs.step <= ctx.latest:
            # Another segment already opened this tick (or a later one);
            # only fold in explicitly provided fields.
            if ctx.has(obs.step):
                row = ctx.value_at(obs.step)
                if obs.temperature is not None:
                    row[_CTX_TEMP] = obs.temperature
                if obs.precipitation is not None:
                    row[_CTX_PRECIP] = obs.precipitation
                if obs.day_type is not None:
                    row[_CTX_DAY] = obs.day_type
            return
        # New tick: start from the previous tick's values (carry-forward).
        if ctx.latest is not None and ctx.has(obs.step - 1):
            row = ctx.value_at(obs.step - 1).copy()
        else:
            row = np.array([0.0, 0.0, *_DEFAULT_DAY_TYPE])
        if obs.temperature is not None:
            row[_CTX_TEMP] = obs.temperature
        if obs.precipitation is not None:
            row[_CTX_PRECIP] = obs.precipitation
        if obs.day_type is not None:
            row[_CTX_DAY] = obs.day_type
        ctx.push(obs.step, row)

    def reset_segment(self, segment_id: int) -> None:
        """Drop a segment's buffered stream (recovery after a gap)."""
        self._check_segment(segment_id)
        self._latest[segment_id] = -1
        self._count[segment_id] = 0
        self._speed_data[segment_id] = 0.0
        self._event_data[segment_id] = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def latest_step(self, segment_id: int) -> int | None:
        self._check_segment(segment_id)
        latest = int(self._latest[segment_id])
        return None if latest < 0 else latest

    def last_speed_kmh(self, segment_id: int) -> float:
        """Most recent raw speed; the naive-degradation forecast."""
        self._check_segment(segment_id)
        latest = int(self._latest[segment_id])
        if latest < 0:
            raise IncompleteWindowError(f"segment {segment_id} has no observations yet")
        return float(self._speed_data[segment_id, latest % self._capacity])

    # ------------------------------------------------------------------
    # Window assembly
    # ------------------------------------------------------------------
    def _hours(self, steps: np.ndarray) -> np.ndarray:
        """Hour of day per step, assuming step 0 is midnight."""
        minutes = (steps % self.steps_per_day) * self.interval_minutes
        return (minutes // 60).astype(np.float64)

    def _readiness_errors(self, segments: np.ndarray) -> list[IncompleteWindowError | None]:
        """Why each segment's window cannot be assembled right now (``None``: ready).

        One vectorised rule: the layout marks the segment servable, its
        own stream holds ``alpha`` consecutive steps ending at ``end``,
        every real layout row holds the ``alpha`` steps ending at ``end``
        (a row running ahead is fine while the ring still holds the
        older slots), and the context ring covers the same steps.
        """
        alpha = self.features.alpha
        ends = self._latest[segments]  # (B,)
        counts = self._count[segments]
        rows = self.layout.rows_array[segments]  # (B, R), -1 = padding
        row_latest = self._latest[rows]  # padding reads the last segment; masked below
        row_ok = (row_latest >= ends[:, None]) & (
            self._count[rows] >= row_latest - ends[:, None] + alpha
        )
        servable = self.layout.servable[segments]
        full = counts >= alpha  # also False for streams with no data (count 0)
        fresh = (row_ok | (rows < 0)).all(axis=1)
        covered = self._context.covers(ends, alpha)
        errors: list[IncompleteWindowError | None] = [None] * len(segments)
        for i in np.flatnonzero(~(servable & full & fresh & covered)):
            segment, end = int(segments[i]), int(ends[i])
            if not servable[i]:
                m = self.features.m
                message = (
                    f"segment {segment} needs {m} neighbours on each side "
                    f"(corridor 0..{self.num_segments - 1}); edge segments are "
                    f"served by the naive fallback"
                )
            elif not full[i]:
                message = f"segment {segment} has {int(counts[i])}/{alpha} consecutive observations"
            elif not fresh[i]:
                message = (
                    f"a neighbour of segment {segment} lags it "
                    f"(no complete window ending at step {end})"
                )
            else:
                message = f"context channels incomplete for steps ending at {end}"
            errors[i] = IncompleteWindowError(message)
        return errors

    def window(self, segment_id: int) -> WindowView:
        """One segment's window, or raise :class:`IncompleteWindowError`."""
        result = self.windows_many([segment_id])[0]
        if isinstance(result, IncompleteWindowError):
            raise result
        return result

    def windows_many(
        self, segment_ids
    ) -> list[WindowView | IncompleteWindowError]:
        """Materialise many segments' windows with vectorised gathers.

        Returns one entry per requested segment, in order: a
        :class:`WindowView`, or the :class:`IncompleteWindowError` that
        explains why the segment cannot be served by the model (callers
        degrade those to the naive forecast rather than failing the whole
        batch).  Unknown segment ids still raise — that is a caller bug,
        not a stream condition.

        Mirrors :func:`repro.data.features.build_graph_features` exactly:
        the speed rows are the segment's layout rows (padding zeroed after
        scaling), followed by the event / temperature / precipitation /
        hour rows, with the factor mask's zero-filling applied.
        """
        cfg = self.features
        alpha, m = cfg.alpha, cfg.m
        requested = np.asarray(segment_ids, dtype=np.int64).reshape(-1)
        unknown = np.flatnonzero((requested < 0) | (requested >= self.num_segments))
        if len(unknown):
            self._check_segment(int(requested[unknown[0]]))
        results: list = self._readiness_errors(requested)
        ready_positions = [i for i, error in enumerate(results) if error is None]
        if not ready_positions:
            return results  # type: ignore[return-value]

        segments = requested[ready_positions]
        ends = self._latest[segments]  # (B,)
        steps = ends[:, None] + np.arange(-(alpha - 1), 1)[None, :]  # (B, alpha)
        idx = steps % self._capacity
        rows = self.layout.rows_array[segments]  # (B, R), -1 = padding
        gather_rows = np.maximum(rows, 0)  # padding rows read row 0, zeroed below

        adj_kmh = self._speed_data[gather_rows[:, :, None], idx[:, None, :]]  # (B, R, alpha)
        event = self._event_data[segments[:, None], idx]  # (B, alpha)
        context = self._context.data[idx]  # (B, alpha, 6)

        adj = self.scalers.speed.transform(adj_kmh)
        adj[rows < 0] = 0.0  # offline rule: zero padding after scaling
        temp = self.scalers.temperature.transform(context[:, :, _CTX_TEMP])
        precip = self.scalers.precipitation.transform(context[:, :, _CTX_PRECIP])
        hour = self._hours(steps) / 23.0
        day_types = context[:, -1, _CTX_DAY].copy()  # (B, 4)

        mask = cfg.mask
        if not mask.adjacent:
            keep = adj[:, m, :].copy()
            adj[:] = 0.0
            adj[:, m, :] = keep
        if not mask.event:
            event = np.zeros_like(event)
        if not mask.weather:
            temp = np.zeros_like(temp)
            precip = np.zeros_like(precip)
        if not mask.time:
            hour = np.zeros_like(hour)
            day_types = np.zeros_like(day_types)

        images = np.concatenate(
            [adj, event[:, None, :], temp[:, None, :], precip[:, None, :], hour[:, None, :]],
            axis=1,
        )  # (B, image_rows, alpha)
        flats = np.concatenate([images.reshape(len(segments), -1), day_types], axis=1)
        last_speeds = adj_kmh[:, m, -1]

        for i, position in enumerate(ready_positions):
            end = int(ends[i])
            day_type = day_types[i]
            digest = hashlib.blake2b(digest_size=12)
            digest.update(end.to_bytes(8, "little", signed=True))
            digest.update(images[i].tobytes())
            digest.update(day_type.tobytes())
            results[position] = WindowView(
                segment_id=int(segments[i]),
                end_step=end,
                target_step=end + cfg.beta,
                image=images[i],
                day_type=day_type,
                flat=flats[i],
                fingerprint=digest.hexdigest(),
                last_speed_kmh=float(last_speeds[i]),
            )
        return results  # type: ignore[return-value]
