"""``serve_city``: one in-process ForecastService over a ~5,000-segment corridor.

Each tick ingests one observation for every segment and then asks for
every servable segment's forecast, so every window is new, every cache
lookup misses, and the LRU (capacity 4,096, below the segment count)
evicts on every tick.  This is the write-heavy serving path.

The unit of work is one forecast; the request is one tick, timed from
the start of ``ingest_many`` to the return of ``predict_many``; a round
is ten ticks.  A
tick's ``Observation`` objects are built before its timed region (that
alone costs tens of milliseconds per tick).  The model is a micro F
checkpoint fitted on the paper's 9-segment corridor.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from harness import ForecastChecker, HostProbe, Measurement, Round, median, observations
from harness import robust_figures, series_digest, timed_setups
from tracer import Tracer

from repro import APOTS, FeatureConfig, ForecastService, SimulationConfig, TrafficDataset
from repro import simulate
from repro.core import save_model
from repro.core.config import ScalePreset
from repro.traffic import Corridor

__all__ = ["run", "champion_preset", "fit_champion"]

NUM_SEGMENTS = {"full": 5000, "tiny": 40}
SETUP_REPEATS = 3
#: Ticks per round (see harness.robust_figures): ~2 s of work.
ROUND_TICKS = {"full": 10, "tiny": 2}


def champion_preset() -> ScalePreset:
    """A micro supervised preset: the checkpoint is served, not studied.

    Trained long enough that its forecasts stay within the checked speed
    range on a 5,000-segment corridor it never saw: over whole simulated
    days of 400-segment corridors, the largest forecast over 65 seeds was
    123 km/h; with two epochs of six steps it passed 150 km/h.
    """
    return ScalePreset(
        name="bench-champion",
        num_days=20,
        width_factor=0.0625,
        epochs=10,
        adversarial_epochs=1,
        batch_size=64,
        adversarial_batch_size=8,
        max_steps_per_epoch=40,
    )


def fit_champion(tracer: Tracer, dataset, features, preset: ScalePreset, seed: int, directory: Path):
    """Fit a supervised F on ``dataset`` and save it as a checkpoint."""
    with tracer.span("core.champion_fit"):
        model = APOTS(
            predictor="F", adversarial=False, features=features, preset=preset, seed=seed
        ).fit(dataset)
        save_model(model, directory)
    return model


def run(seed: int, seconds: float, tracer: Tracer, scale: str = "full", workdir: Path = Path(".")) -> Measurement:
    failures: list[str] = []
    checker = ForecastChecker(failures)
    num_segments = NUM_SEGMENTS[scale]
    features = FeatureConfig()
    preset = champion_preset()

    def build():
        directory = Path(tempfile.mkdtemp(prefix="serve-", dir=workdir))
        with tracer.span("traffic.simulate"):
            history = simulate(SimulationConfig(num_days=preset.num_days, seed=seed))
            corridor = Corridor.gyeongbu(num_segments, rng=np.random.default_rng(seed))
            city = simulate(SimulationConfig(num_days=1, seed=seed + 1), corridor=corridor)
        dataset = TrafficDataset(history, features, seed=seed)
        fit_champion(tracer, dataset, features, preset, seed, directory)
        service = ForecastService.from_checkpoint(directory, num_segments)
        # Warm-up: fill every window, then one full predict.
        for step in range(features.alpha):
            service.ingest_many(observations(city, step))
        service.predict_many(range(features.m, num_segments - features.m))
        return directory, city, service

    def teardown(built) -> None:
        shutil.rmtree(built[0], ignore_errors=True)

    host = HostProbe()
    built, setup_seconds = timed_setups(tracer, host, SETUP_REPEATS, build, teardown)
    directory, city, service = built
    servable = list(range(features.m, num_segments - features.m))
    cache_before = service.cache.stats()

    tick_seconds: list[float] = []
    raw_seconds = build_seconds = 0.0
    errors: list[np.ndarray] = []
    deadline = time.perf_counter() + seconds
    step = features.alpha
    last_step = city.num_steps - features.beta
    try:
        while step < last_step and (not tick_seconds or time.perf_counter() < deadline):
            tracer.request_id = step
            build_start = time.perf_counter()
            with tracer.span("loadgen.build"):
                batch = observations(city, step)
            build_seconds += time.perf_counter() - build_start
            start = time.perf_counter()
            service.ingest_many(batch)
            forecasts = service.predict_many(servable)
            elapsed = time.perf_counter() - start
            with tracer.paused():
                host.sample()
            raw_seconds += elapsed
            tick_seconds.append(elapsed * host.factor())
            checker.check(forecasts, lambda segment: True)
            predicted = np.fromiter((f.speed_kmh for f in forecasts), dtype=np.float64)
            targets = np.fromiter((f.target_step for f in forecasts), dtype=np.int64)
            truth = city.speeds[servable, targets]
            errors.append(np.abs(predicted - truth) / truth)
            step += 1
    finally:
        teardown(built)

    ticks = len(tick_seconds)
    per_round = ROUND_TICKS[scale]
    rounds = [
        Round(len(chunk) * len(servable), sum(chunk), chunk)
        for chunk in (tick_seconds[i : i + per_round] for i in range(0, ticks, per_round))
    ]
    kept, everything = robust_figures(rounds)
    cache_after = service.cache.stats()
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    evictions = (cache_after["lru_evictions"] + cache_after["ttl_evictions"]) - (
        cache_before["lru_evictions"] + cache_before["ttl_evictions"]
    )
    layer = serving_layers(tracer, ticks)
    layer.update(
        {
            "traffic.simulate_s": tracer.self_seconds("setup", "traffic.simulate") / SETUP_REPEATS,
            "core.champion_fit_s": tracer.stat("setup", "core.champion_fit")[1] / SETUP_REPEATS,
            "serving.out_of_range_share": checker.out_of_range / max(checker.attempted, 1),
            "serving.cache_hit_ratio": hits / max(hits + misses, 1),
            "serving.cache_evictions": evictions / max(ticks, 1),
            "loadgen.build_ms": build_seconds * 1e3 / max(ticks, 1),
        }
    )
    return Measurement(
        end_to_end=dict(kept, setup_s=median(setup_seconds)),
        per_layer=layer,
        attempted=checker.attempted,
        failed=checker.failed,
        failures=failures,
        digests={"city": series_digest(city)},
        detail={
            "ticks": ticks,
            "rounds": len(rounds),
            "segments": num_segments,
            "all_rounds": everything,
            "raw_items_per_s": ticks * len(servable) / raw_seconds,
            "mape_pct": float(np.mean(np.concatenate(errors))) * 100.0,
        },
    )


def serving_layers(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-request self time of each serving stage, plus batch shape."""

    def per_request_ms(*names: str) -> float:
        return tracer.self_seconds("measure", *names) * 1e3 / max(requests, 1)

    counters = tracer.counters
    rows = counters.get(("measure", "serving.batch_rows"), 0.0)
    forwarded = counters.get(("measure", "serving.forwarded_rows"), 0.0)
    batches = counters.get(("measure", "serving.batches"), 0.0)
    return {
        "serving.ingest_ms": per_request_ms("serving.ingest"),
        "serving.resolve_ms": per_request_ms("serving.resolve"),
        "serving.windows_ms": per_request_ms("serving.windows"),
        "serving.cache_ms": per_request_ms("serving.cache"),
        "serving.batch_ms": per_request_ms("serving.batch", "serving.batch_chunk"),
        "serving.batch_rows_mean": rows / max(batches, 1.0),
        "serving.padded_row_share": (forwarded - rows) / max(forwarded, 1.0),
        "nn.forward_ms": per_request_ms("nn.forward"),
        "nn.linear_forward_ms": per_request_ms("nn.linear_forward"),
        "serving.descale_ms": per_request_ms("serving.descale"),
    }
