"""Feature extraction: from a TrafficSeries to model-ready windows.

Implements the paper's input constructions:

* the **adjacent-speed matrix** ``S_adj`` (Eq 5/6): rows are the target
  road plus ``m`` upstream and ``m`` downstream segments, columns the
  ``alpha`` past timesteps;
* the **non-speed data** ``S_bar``: per-step event flag, temperature,
  precipitation and hour channels, plus one 4-bit day-type vector per
  window (the paper uses a single value per window for day type);
* the **additional data** ``E = S_adj (+) S_bar`` (Eq 3) that conditions
  the discriminator.

Which segment rows form ``S_adj`` is decided by the config's row layout
(:mod:`repro.data.layout`): :class:`FeatureConfig` gives the corridor's
contiguous ``±m`` rows, :class:`GraphFeatureConfig` a road graph's k-hop
rows.  :func:`build_graph_features` builds every window;
:func:`build_features` is its single-target corridor call.

Section V-B (Q2) fixes the input size to the "both" configuration and
zero-fills whatever is ablated; :class:`FactorMask` reproduces exactly
that rule, including the per-factor switches of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from ..traffic.types import TrafficSeries
from .layout import GraphWindowLayout, corridor_layout
from .scaling import LogStandardScaler, MinMaxScaler, StandardScaler, scaler_from_state

__all__ = [
    "FactorMask",
    "FeatureConfig",
    "GraphFeatureConfig",
    "FeatureScalers",
    "WindowFeatures",
    "build_features",
    "build_graph_features",
    "fit_scalers",
]


@dataclass(frozen=True)
class FactorMask:
    """Which feature blocks are active; inactive blocks are zero-filled.

    ``speed`` (the target road's own history) is always on — it is the
    primary input of every predictor, never ablated.
    """

    adjacent: bool = True
    event: bool = True
    weather: bool = True
    time: bool = True

    # Named configurations used by the paper -----------------------------
    @staticmethod
    def speed_only() -> "FactorMask":
        return FactorMask(adjacent=False, event=False, weather=False, time=False)

    @staticmethod
    def adjacent_only() -> "FactorMask":
        return FactorMask(adjacent=True, event=False, weather=False, time=False)

    @staticmethod
    def non_speed_only() -> "FactorMask":
        return FactorMask(adjacent=False, event=True, weather=True, time=True)

    @staticmethod
    def both() -> "FactorMask":
        return FactorMask()

    @staticmethod
    def table2(code: str) -> "FactorMask":
        """Decode a Table II column name (e.g. ``"SWT"``) to a mask.

        ``S`` always denotes the speed input; the remaining letters turn
        on Event / Weather / Time.  Adjacent-speed data stays on for all
        Table II configurations (the table's best cell, SEWT, equals the
        paper's full APOTS_H which uses both kinds of additional data).
        """
        code = code.upper()
        if not code.startswith("S"):
            raise ValueError(f"Table II code must start with 'S', got {code!r}")
        extras = set(code[1:])
        unknown = extras - set("EWT")
        if unknown:
            raise ValueError(f"unknown factor letters {sorted(unknown)} in {code!r}")
        return FactorMask(adjacent=True, event="E" in extras, weather="W" in extras, time="T" in extras)

    @property
    def uses_additional(self) -> bool:
        return self.adjacent or self.event or self.weather or self.time


class _WindowGeometry:
    """Window geometry shared by every feature config.

    A config names the target road's image row (``m``), its speed-row
    count (``num_roads``) and :meth:`layout_for`, the row layout that
    decides which segment rows feed a window and which segments are
    servable; everything else is derived here once for all configs.
    """

    alpha: int
    beta: int
    mask: FactorMask

    def __post_init__(self):
        if self.alpha < 2:
            raise ValueError("alpha must be at least 2")
        if self.beta < 1:
            raise ValueError("beta must be at least 1")

    @property
    def image_rows(self) -> int:
        """Rows of the (roads + 4 non-speed channels) input image."""
        return self.num_roads + 4

    @property
    def flat_dim(self) -> int:
        """Dimension of the flattened feature vector (FC predictor input)."""
        return self.image_rows * self.alpha + 4

    @property
    def condition_dim(self) -> int:
        """Dimension of the additional-data condition E for D.

        E excludes the target road's own history (that is the primary
        input, not 'additional' data): the other speed rows + 4
        non-speed channels, each alpha long, plus the 4 day-type bits.
        """
        return (self.num_roads - 1 + 4) * self.alpha + 4

    def with_mask(self, mask: FactorMask):
        return replace(self, mask=mask)


@dataclass(frozen=True)
class FeatureConfig(_WindowGeometry):
    """Corridor window geometry and factor switches.

    alpha:
        History length (12 five-minute speeds = 1 hour in the paper).
    beta:
        Prediction offset: the target is ``beta`` steps after the last
        input step (paper's beta = 1 means the next interval).
    m:
        Adjacent roads on each side (Fig 3); the speed matrix has
        ``2m + 1`` rows.
    mask:
        Active feature blocks (inactive blocks become zeros).
    """

    alpha: int = 12
    beta: int = 1
    m: int = 2
    mask: FactorMask = field(default_factory=FactorMask)

    def __post_init__(self):
        super().__post_init__()
        if self.m < 0:
            raise ValueError("m must be non-negative")

    @property
    def num_roads(self) -> int:
        return 2 * self.m + 1

    def layout_for(self, num_segments: int) -> GraphWindowLayout:
        """The contiguous ``±m`` rows of a ``num_segments`` corridor."""
        return corridor_layout(num_segments, self.m)


@dataclass(frozen=True)
class GraphFeatureConfig(_WindowGeometry):
    """Window geometry over a road graph's stored k-hop layout.

    The layout's ``target_row`` plays the role of ``m``: every consumer
    that indexes the target row via ``features.m`` — the persistence
    baselines, the discriminator condition — works unchanged.
    """

    layout: GraphWindowLayout
    alpha: int = 12
    beta: int = 1
    mask: FactorMask = field(default_factory=FactorMask)

    @property
    def m(self) -> int:
        """Row index of the target road (the corridor's ``m``)."""
        return self.layout.target_row

    @property
    def num_roads(self) -> int:
        return self.layout.num_rows

    def layout_for(self, num_segments: int) -> GraphWindowLayout:
        """The stored layout, which must cover exactly ``num_segments``."""
        if self.layout.num_segments != num_segments:
            raise ValueError(
                f"layout covers {self.layout.num_segments} segments, not {num_segments}"
            )
        return self.layout


@dataclass
class FeatureScalers:
    """Train-fitted scalers shared by transform-time feature building."""

    speed: MinMaxScaler
    temperature: StandardScaler
    precipitation: LogStandardScaler

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of all fitted scaler parameters."""
        return {
            "speed": self.speed.state_dict(),
            "temperature": self.temperature.state_dict(),
            "precipitation": self.precipitation.state_dict(),
        }

    @staticmethod
    def from_state(state: dict) -> "FeatureScalers":
        return FeatureScalers(
            speed=scaler_from_state(state["speed"]),
            temperature=scaler_from_state(state["temperature"]),
            precipitation=scaler_from_state(state["precipitation"]),
        )


@dataclass
class WindowFeatures:
    """Windows of one or more targets, stacked target-major, as aligned arrays.

    Block ``i`` holds every window of the ``i``-th target; all blocks
    have ``windows_per_target`` windows and share one time axis.

    Attributes
    ----------
    images:
        (N, image_rows, alpha) scaled feature image: the first
        ``num_roads`` rows are the target's layout rows (Eq 6 on a
        corridor, target road at row ``m``, padding rows zero), then
        event, temperature, precipitation and hour rows.
    day_types:
        (N, 4) day-type bits of each window's last input step.
    targets:
        (N,) scaled target speed at ``beta`` steps past the window end.
    targets_kmh:
        (N,) unscaled target speeds (for metric computation).
    last_input_kmh:
        (N,) unscaled target-road speed at the last input step (used to
        classify abrupt-change regimes, Eq 7/8).
    target_steps:
        (N,) absolute timestep index of each target.
    config, scalers:
        The geometry and the train-fitted scalers used.
    segment_ids:
        (N,) target segment id each window predicts.
    """

    images: np.ndarray
    day_types: np.ndarray
    targets: np.ndarray
    targets_kmh: np.ndarray
    last_input_kmh: np.ndarray
    target_steps: np.ndarray
    config: FeatureConfig | GraphFeatureConfig
    scalers: FeatureScalers
    segment_ids: np.ndarray

    @property
    def num_windows(self) -> int:
        return self.images.shape[0]

    @property
    def windows_per_target(self) -> int:
        return self.num_windows // len(np.unique(self.segment_ids))

    def flat(self, indices: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Flattened (N, flat_dim) view: image rows then day-type bits."""
        images = self.images[indices]
        day_types = self.day_types[indices]
        return np.concatenate([images.reshape(images.shape[0], -1), day_types], axis=1)

    def condition(self, indices: np.ndarray | slice = slice(None)) -> np.ndarray:
        """The additional-data condition E (Eq 3) per window.

        Excludes the target road's own row of the speed matrix; respects
        the factor mask through the zero-filling already applied.
        """
        images = self.images[indices]
        m = self.config.m
        rows = np.delete(images, m, axis=1)  # drop the target road row
        return np.concatenate([rows.reshape(rows.shape[0], -1), self.day_types[indices]], axis=1)

    def image_sequences(self, indices: np.ndarray | slice = slice(None)) -> np.ndarray:
        """(N, alpha, image_rows) time-major sequences for the LSTM."""
        return np.transpose(self.images[indices], (0, 2, 1))


def _sliding_windows(values: np.ndarray, alpha: int, num_windows: int) -> np.ndarray:
    """Stride-trick view of shape (num_windows, ..., alpha) over axis -1."""
    view = np.lib.stride_tricks.sliding_window_view(values, alpha, axis=-1)
    # view shape: (..., T - alpha + 1, alpha)
    return view[..., :num_windows, :]


def fit_scalers(series: TrafficSeries, train_steps: np.ndarray | None = None) -> FeatureScalers:
    """Fit the feature scalers; ``train_steps`` restricts to train times."""
    if train_steps is None:
        speed_data = series.speeds
        temp = series.temperature
        precip = series.precipitation
    else:
        speed_data = series.speeds[:, train_steps]
        temp = series.temperature[train_steps]
        precip = series.precipitation[train_steps]
    return FeatureScalers(
        speed=MinMaxScaler().fit(speed_data),
        temperature=StandardScaler().fit(temp),
        precipitation=LogStandardScaler().fit(precip),
    )


def build_features(
    series: TrafficSeries,
    config: FeatureConfig,
    scalers: FeatureScalers | None = None,
) -> WindowFeatures:
    """Every window of the corridor's target road (one-target call of
    :func:`build_graph_features`).

    Window ``i`` covers input steps ``[i, i + alpha - 1]`` and predicts
    the target-road speed at step ``i + alpha - 1 + beta``.
    """
    return build_graph_features(series, config, [series.corridor.target_index], scalers)


def build_graph_features(
    series: TrafficSeries,
    config: FeatureConfig | GraphFeatureConfig,
    targets: Iterable[int],
    scalers: FeatureScalers | None = None,
) -> WindowFeatures:
    """Extract every valid window of each target through the config's layout.

    Per target: gather the layout rows (padding rows read row 0), scale,
    zero the padding rows *after* scaling so speeds outside the
    neighbourhood never leak, then slide ``alpha``-step windows and
    append the event / temperature / precipitation / hour rows, with the
    factor mask's zero-filling (the Q2 rule) applied.  On a corridor the
    rows are ``target - m .. target + m``: the paper's Eq 5/6 matrix.
    """
    layout = config.layout_for(series.num_segments)
    target_list = [int(t) for t in targets]
    if not target_list:
        raise ValueError("at least one target segment is required")
    if len(set(target_list)) != len(target_list):
        raise ValueError("target segments must be unique")
    servable = layout.servable
    for t in target_list:
        if not 0 <= t < series.num_segments:
            raise ValueError(f"target {t} outside 0..{series.num_segments - 1}")
        if not servable[t]:
            raise ValueError(f"target {t} lacks {config.m} corridor neighbours on both sides")

    alpha, beta = config.alpha, config.beta
    total = series.num_steps
    num_windows = total - alpha - beta + 1
    if num_windows <= 0:
        raise ValueError(
            f"series too short: {total} steps cannot fit alpha={alpha}, beta={beta} windows"
        )
    if scalers is None:
        scalers = fit_scalers(series)

    mask = config.mask
    target_row = layout.target_row

    # Shared non-speed channels (target-independent), each (N, alpha).
    temp = _sliding_windows(scalers.temperature.transform(series.temperature), alpha, num_windows).copy()
    precip = _sliding_windows(
        scalers.precipitation.transform(series.precipitation), alpha, num_windows
    ).copy()
    hour = _sliding_windows(series.hours / 23.0, alpha, num_windows).copy()
    if not mask.weather:
        temp[:] = 0.0
        precip[:] = 0.0

    last_step = np.arange(num_windows) + alpha - 1
    day_types = series.day_types[last_step].astype(np.float64)
    if not mask.time:
        hour[:] = 0.0
        day_types = np.zeros_like(day_types)
    target_steps = last_step + beta

    image_blocks = []
    target_kmh_blocks = []
    last_kmh_blocks = []
    for t in target_list:
        rows = layout.rows_array[t]
        adj = scalers.speed.transform(series.speeds[np.maximum(rows, 0)])
        adj[rows < 0] = 0.0
        # (R, N, alpha) -> (N, R, alpha)
        adj_windows = np.transpose(_sliding_windows(adj, alpha, num_windows), (1, 0, 2)).copy()
        event = _sliding_windows(series.events[t], alpha, num_windows).copy()
        if not mask.adjacent:
            keep = adj_windows[:, target_row, :].copy()
            adj_windows[:] = 0.0
            adj_windows[:, target_row, :] = keep
        if not mask.event:
            event[:] = 0.0
        image_blocks.append(
            np.concatenate(
                [adj_windows, event[:, None, :], temp[:, None, :], precip[:, None, :], hour[:, None, :]],
                axis=1,
            )
        )
        target_kmh_blocks.append(series.speeds[t, target_steps])
        last_kmh_blocks.append(series.speeds[t, last_step])

    reps = len(target_list)
    targets_kmh = np.concatenate(target_kmh_blocks)
    return WindowFeatures(
        images=np.concatenate(image_blocks, axis=0),
        day_types=np.concatenate([day_types] * reps, axis=0),
        targets=scalers.speed.transform(targets_kmh),
        targets_kmh=targets_kmh,
        last_input_kmh=np.concatenate(last_kmh_blocks),
        target_steps=np.concatenate([target_steps] * reps),
        config=config,
        scalers=scalers,
        segment_ids=np.repeat(np.array(target_list, dtype=np.int64), num_windows),
    )
