"""Shared pieces of the workloads: inputs, checks, stamps and statistics."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.serving import Forecast, Observation

__all__ = [
    "HostProbe",
    "Measurement",
    "Round",
    "robust_figures",
    "ForecastChecker",
    "observations",
    "series_digest",
    "percentile",
    "median",
    "peak_rss_mb",
    "timed_setups",
    "stamps",
    "write_record",
]

#: Plausible range of a served speed (km/h) for the output checks.
SPEED_RANGE_KMH = (0.0, 130.0)


@dataclass
class Measurement:
    """What one pass of a workload measured.

    ``end_to_end`` and ``per_layer`` map metric names to values;
    ``detail`` holds workload-specific figures that go into the run
    record but are not gated (call p99, per-body fit times ...).
    """

    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    detail: dict[str, float] = field(default_factory=dict)


@dataclass
class Round:
    """A slice of a run's measured work: items done, busy seconds, request latencies."""

    items: int
    seconds: float
    latencies: list[float]


#: Share of a run's rounds, fastest first, that its figures come from.
KEEP_SHARE = 0.5


class HostProbe:
    """Measures how fast the host runs right now, between timed requests.

    The probe is a fixed piece of work, a pure-Python loop plus small
    matrix products, that takes about :data:`REFERENCE_S` on an idle
    2-core host.  The benchmark host is shared, and its speed drifts by
    up to 1.5x over minutes: the same H training step took 156-213 ms in
    five back-to-back processes, while its ratio to a probe interleaved
    with the steps stayed within 47.1-47.8 in four of them (42.0 in the
    fifth).  So every timed interval is scaled by ``REFERENCE_S`` over
    the median of the latest probes: end-to-end times are reported in
    seconds of a host running at reference speed.  Raw figures stay in
    the run record.
    """

    REFERENCE_S = 0.004
    WINDOW = 3

    def __init__(self):
        self._matrix = np.random.default_rng(0).normal(size=(96, 96))
        self.samples: list[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i % 7
        for _ in range(20):
            self._matrix @ self._matrix
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Reference seconds per host second, from the latest probes."""
        if not self.samples:
            self.sample()
        recent = sorted(self.samples[-self.WINDOW :])
        return self.REFERENCE_S / recent[len(recent) // 2]


def robust_figures(rounds: list[Round]) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end figures from the fastest half of ``rounds``, and from all.

    The benchmark host is shared: a pure-Python loop measured in
    one-second buckets ran 1.1-1.8x slower than its best for stretches of
    several seconds.  Slowdown only ever adds time, so the fastest rounds
    (by seconds per item) measure the program and the rest measure its
    neighbours.  Rounds are sized to hold the workload's own periodic
    work, so dropping the slower half drops contention, not program cost.
    Returns (kept figures, all-rounds figures).
    """

    def figures(selected: list[Round]) -> dict[str, float]:
        latencies = np.concatenate([np.asarray(r.latencies, dtype=np.float64) for r in selected])
        latencies_ms = latencies * 1e3
        return {
            "items_per_s": sum(r.items for r in selected) / sum(r.seconds for r in selected),
            "latency_p50_ms": percentile(latencies_ms, 50.0),
            "latency_p90_ms": percentile(latencies_ms, 90.0),
        }

    ranked = sorted(rounds, key=lambda r: r.seconds / r.items)
    kept = ranked[: max(1, math.ceil(len(ranked) * KEEP_SHARE))]
    return figures(kept), figures(rounds)


def observations(series, column: int, step: int | None = None) -> list[Observation]:
    """One tick's observations for every segment, read from ``column``."""
    step = column if step is None else step
    speeds = series.speeds[:, column].tolist()
    events = series.events[:, column].tolist()
    temperature = float(series.temperature[column])
    precipitation = float(series.precipitation[column])
    day_type = tuple(series.day_types[column])
    return [
        Observation(
            segment_id=segment,
            step=step,
            speed_kmh=speeds[segment],
            event=events[segment],
            temperature=temperature,
            precipitation=precipitation,
            day_type=day_type,
        )
        for segment in range(series.num_segments)
    ]


def series_digest(series) -> str:
    """sha256 over every array a workload feeds from ``series``."""
    digest = hashlib.sha256()
    for array in (
        series.speeds,
        series.events,
        series.temperature,
        series.precipitation,
        series.day_types,
    ):
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


class ForecastChecker:
    """Counts forecasts that break the serving contract.

    A forecast fails when its value is not finite, when a segment with a
    complete window was not answered by the model, or when the fleet
    shed it.  A value outside :data:`SPEED_RANGE_KMH` is counted in
    ``out_of_range``, and fails too when ``range_fails`` is set.
    """

    #: Failures described in the run record; the rest are only counted.
    EXAMPLES = 20

    def __init__(self, failures: list[str], range_fails: bool = True):
        self.failures = failures
        self.range_fails = range_fails
        self.attempted = 0
        self.failed = 0
        self.out_of_range = 0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < self.EXAMPLES:
            self.failures.append(message)

    def check(self, forecasts: list[Forecast], model_expected: Callable[[int], bool]) -> None:
        low, high = SPEED_RANGE_KMH
        for forecast in forecasts:
            self.attempted += 1
            speed = forecast.speed_kmh
            in_range = low <= speed <= high
            self.out_of_range += not in_range
            if not math.isfinite(speed) or (self.range_fails and not in_range):
                self._fail(f"segment {forecast.segment_id}: speed {speed!r} km/h")
            elif (forecast.degraded_reason or "").startswith("load shed"):
                self._fail(f"segment {forecast.segment_id}: shed ({forecast.degraded_reason})")
            elif model_expected(forecast.segment_id) and forecast.source != "model":
                self._fail(
                    f"segment {forecast.segment_id}: {forecast.source} answer "
                    f"({forecast.degraded_reason})"
                )

    def expect(self, condition: bool, message: str) -> None:
        """Count one whole-run check (a swap happened, losses are finite)."""
        self.attempted += 1
        if not condition:
            self._fail(message)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_setups(
    tracer, host: HostProbe, repeats: int, build: Callable, teardown: Callable | None = None
):
    """Run ``build`` ``repeats`` times; return (last result, seconds each).

    Seconds are host-normalised (see :class:`HostProbe`) with a probe
    after each set-up.  Earlier results are torn down before the next
    build starts, so only one set-up (one fleet, one temp checkpoint)
    is alive at a time.
    """
    tracer.phase = "setup"
    seconds: list[float] = []
    result = None
    host.sample()
    for attempt in range(repeats):
        if result is not None and teardown is not None:
            teardown(result)
        tracer.request_id = attempt
        start = time.perf_counter()
        result = build()
        elapsed = time.perf_counter() - start
        host.sample()
        seconds.append(elapsed * host.factor())
    tracer.phase = "measure"
    tracer.request_id = 0
    return result, seconds


def _git_sha(root: Path) -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def _source_digest(root: Path) -> str:
    """sha256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_build() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no dict mode
        return {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def stamps(
    root: Path, workload: str, seed: int, seconds: float, trace: bool, blas_vars: tuple[str, ...]
) -> dict:
    """Everything that identifies a run's code, host and settings."""
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "timestamp": time.time(),
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "usable_cpus": affinity,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": {var: os.environ.get(var) for var in blas_vars},
    }


def write_record(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
